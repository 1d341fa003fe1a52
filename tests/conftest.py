"""Shared fixtures: the test-spec registry and tolerance helpers.

Spec naming:
  EMPTY   no terms; F = 1 on (0,1].
  TRIV0   {(1,1/2),(-1,1/2)}: f = 0 identically, F = 1; admissible,
          unit-fraction, |a|<=1, but b's are NOT distinct.
  SPEC_A  {(1,1/2),(-1,1/3),(-1,1/6)}: admissible, distinct b=(2,3,6).
  SPEC_D  {(1,1/2),(-9/10,1/3),(-1,1/5)}: admissible, distinct b=(2,3,5).
  SPEC_E  {(1/2,1/2),(-3/8,1/3),(-1/2,1/4)}: admissible, distinct b=(2,3,4).
  ADM1    {(1,1),(-2,1/2)}: admissible but |a_2| = 2 > 1 (violates the
          truncation-bound hypotheses; unit-fraction with b=(1,2)).
  THETA1_B  {(1/2,1),(-1,1/2)} and THETA1_C {(1/3,1),(-1,1/3)}: admissible
          unit-fraction specs containing theta = 1; kept as edge-case
          fixtures (see test_fourier.py for the documented truncation-bound
          limitation at theta = 1).
"""
from fractions import Fraction as Fr

import pytest

from beurling import BeurlingSpec


def failed_hypotheses(spec) -> set:
    """The hypotheses of the paper's truncation and growth bounds that spec
    fails, out of "unit fractions" (every theta_k = 1/b_k), "|a_k| <= 1"
    and "distinct denominators" (unit fractions with distinct b_k)."""
    failed = set()
    if any(t.theta.numerator != 1 for t in spec.terms):
        failed |= {"unit fractions", "distinct denominators"}
    if any(t.a_re**2 + t.a_im**2 > 1 for t in spec.terms):
        failed.add("|a_k| <= 1")
    denoms = [t.theta.denominator for t in spec.terms]
    if len(set(denoms)) != len(denoms):
        failed.add("distinct denominators")
    return failed


@pytest.fixture(scope="session")
def empty_spec():
    return BeurlingSpec()


@pytest.fixture(scope="session")
def triv0():
    return BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 2))])


@pytest.fixture(scope="session")
def spec_a():
    return BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3)), (-1, Fr(1, 6))])


@pytest.fixture(scope="session")
def spec_d():
    return BeurlingSpec([(1, Fr(1, 2)), (Fr(-9, 10), Fr(1, 3)), (-1, Fr(1, 5))])


@pytest.fixture(scope="session")
def spec_e():
    return BeurlingSpec([(Fr(1, 2), Fr(1, 2)), (Fr(-3, 8), Fr(1, 3)), (Fr(-1, 2), Fr(1, 4))])


@pytest.fixture(scope="session")
def adm1():
    return BeurlingSpec([(1, 1), (-2, Fr(1, 2))])


@pytest.fixture(scope="session")
def theta1_b():
    return BeurlingSpec([(Fr(1, 2), 1), (-1, Fr(1, 2))])


@pytest.fixture(scope="session")
def theta1_c():
    return BeurlingSpec([(Fr(1, 3), 1), (-1, Fr(1, 3))])


@pytest.fixture(scope="session")
def hypothesis_specs(spec_a, spec_d, spec_e):
    """Admissible unit-fraction specs with |a_k| <= 1 and distinct b_k:
    the set over which the truncation bound is asserted."""
    return {"SPEC_A": spec_a, "SPEC_D": spec_d, "SPEC_E": spec_e}


@pytest.fixture(scope="session")
def admissible_specs(empty_spec, triv0, spec_a, spec_d, spec_e, adm1):
    return {
        "EMPTY": empty_spec,
        "TRIV0": triv0,
        "SPEC_A": spec_a,
        "SPEC_D": spec_d,
        "SPEC_E": spec_e,
        "ADM1": adm1,
    }
