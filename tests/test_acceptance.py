"""Acceptance suite: every claim that ``pg552 report`` checks about the two
geometries, one test per claim, each printing a pass/fail line.

The claims are stated once, as the gates of ``cli._claim_<name>`` for the
names in ``cli.CLAIMS``; this module only runs them.  Each test keeps the
name it had when the claims were written out here a second time.
"""

import pytest

from pg552 import cli


@pytest.fixture(scope="module")
def env():
    return cli._environment(50)


def _criterion(number):
    name = cli.CLAIMS[number - 1]

    def test(env):
        detail = getattr(cli, f"_claim_{name}")(env)
        print(f"criterion {number:2d}: {'PASS' if detail['pass'] else 'FAIL'}  {name}")
        assert detail["pass"], detail

    return test


test_criterion_1_pg_parameters = _criterion(1)
test_criterion_2_srg_parameters = _criterion(2)
test_criterion_3_isomorphism_and_certificates = _criterion(3)
test_criterion_4_automorphism_orders = _criterion(4)
test_criterion_5_orbits_of_new_geometry = _criterion(5)
test_criterion_6_clique_census = _criterion(6)
test_criterion_7_subspace_census = _criterion(7)
test_criterion_8_construction_identities = _criterion(8)
test_criterion_9_local_configuration = _criterion(9)
test_criterion_10_faithfully_geometric = _criterion(10)
test_criterion_11_mms_weightings = _criterion(11)


def test_one_criterion_per_claim():
    tests = [name for name in globals() if name.startswith("test_criterion_")]
    assert sorted(int(name.split("_")[2]) for name in tests) == list(
        range(1, len(cli.CLAIMS) + 1))
