import pytest

from blockshift import (
    Alphabet,
    SparseSetSpec,
    TargetSequence,
    build_schedule,
    mobius_sieve,
    realize,
)


def mu_by_trial_division(n: int) -> int:
    m, res, p = n, 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1
    if m > 1:
        res = -res
    return res


@pytest.fixture(scope="session")
def binary():
    return Alphabet("01")


@pytest.fixture(scope="session")
def ternary():
    return Alphabet("0+-")


@pytest.fixture(scope="session")
def squares():
    return SparseSetSpec.squares()


@pytest.fixture(scope="session")
def sched2(binary, squares):
    return build_schedule(binary, squares, 2)


@pytest.fixture(scope="session")
def mu_target(binary):
    return TargetSequence.mu_indicator()


@pytest.fixture(scope="session")
def x2(mu_target, sched2):
    return realize(mu_target, sched2, 2)


@pytest.fixture(scope="session")
def mob():
    return mobius_sieve(10**6)
