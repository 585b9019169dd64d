"""The ``qarith verify`` catalogue, asserted check by check.

One ``verify all --seed 0`` run per module consumes the seeded generator
exactly as the command line does; each check then becomes its own test
case, named after its function, that prints the check's detail.
"""

import pytest

from qarith.config import Config
from qarith.verify import SUITES, run_suite

CHECKS = SUITES["all"]


@pytest.fixture(scope="module")
def report():
    return run_suite("all", Config(), seed=0)


@pytest.mark.parametrize(
    "index", range(len(CHECKS)), ids=[fn.__name__.removeprefix("check_") for fn in CHECKS]
)
def test_check(report, index):
    check = report["checks"][index]
    print(f"{check['name']}: {check['detail']}")
    assert check["ok"], check["detail"]
