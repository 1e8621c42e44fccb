"""Shared test helpers."""

import hashlib
import math

import numpy as np
import pytest

# sha256 of libm and numpy results (exp, log, pow, cos, sin) on the machine
# that recorded the frozen digests; other last-bit results elsewhere change
# the outputs without any change of the program
MATH_FINGERPRINT = \
    "9aa10f18f10751621087d43313fa54e374093b849ac0eccaa60f45f59b87f764"


def _math_fingerprint():
    x = 10.0 * np.random.Generator(np.random.Philox(0)).random(4096)
    h = hashlib.sha256()
    for f in (np.exp, np.log, np.cos, np.sin, np.cbrt):
        h.update(f(x).tobytes())
    h.update(np.array([math.exp(v) + math.log(v) + v ** (1.0 / 3.0)
                       + v ** 2.5 for v in x]).tobytes())
    return h.hexdigest()


@pytest.fixture
def recording_math():
    """Skip a frozen-digest test where libm or numpy round differently
    from the machine that recorded the digests."""
    if _math_fingerprint() != MATH_FINGERPRINT:
        pytest.skip("libm or numpy round differently on this machine")
