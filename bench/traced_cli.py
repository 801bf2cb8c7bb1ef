"""Run the pg552 command with every layer traced, then write the spans as
JSON to the file named by the first argument.  Each ``cli._claim_<name>``
function of ``report`` is traced too, as ``cli.claim.<name>``.

    python3 bench/traced_cli.py SPANS.json report --all --out DIR
"""

import json
import sys

import pg552.cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    for attr in [a for a in vars(pg552.cli) if a.startswith("_claim_")]:
        tracer.patch(pg552.cli, attr, f"cli.claim.{attr[len('_claim_'):]}")
    try:
        return pg552.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as f:
            json.dump(tracer.take(), f)


if __name__ == "__main__":
    sys.exit(main())
