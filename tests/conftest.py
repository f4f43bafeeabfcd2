import os

import hypothesis
import pytest

import bwflow
from bwflow import analytic, conditions, flow

# the directory that holds this bwflow package
SRC = os.path.dirname(os.path.dirname(os.path.abspath(bwflow.__file__)))

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def generic_spec():
    # strict-gap block with rho = sqrt(5); the workhorse example
    return analytic.block_spec([(1.0, 2.0, 0.5)], label="generic")


@pytest.fixture(scope="session")
def generic_traj(generic_spec):
    return flow.integrate(generic_spec, t_end=5.0)


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this bwflow:
    os.environ with SRC first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def writes_into(f):
    """The right-hand side f(t, y) -> dy in the stepper's protocol
    fun(t, y, out), which writes the derivative into out."""
    def fun(t, y, out):
        out[...] = f(t, y)
    return fun


def check_a3_a6(spec, tol=conditions.DEFAULT_TOL):
    """A3 and A6 of spec on their own, as check_all finds them."""
    return conditions._check_a3_a6(spec, tol, conditions._sandwiches(spec, tol))


def check_a4_a5(spec, eps=conditions.DEFAULT_EPS, tol=conditions.DEFAULT_TOL):
    """A4 and A5 of spec on their own, as check_all finds them."""
    return conditions._check_a4_a5(spec, eps, tol, conditions._sandwiches(spec, tol))
