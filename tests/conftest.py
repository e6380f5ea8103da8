import os

import numpy as np
import pytest
from hypothesis import settings

import realbloch as rb

# HYPOTHESIS_PROFILE=ci draws every example from a fixed seed and keeps no
# example database, so a failure on CI reproduces anywhere; local runs keep
# random draws.
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def mobius_two_band():
    """Rank-2 family over the trivially-involutive circle whose lower band
    is the nontrivial Real line (sewing matrix winds once)."""

    def evaluate(coords):
        th = coords[0]
        return -(np.cos(th) * SX + np.sin(th) * SY)

    return (
        rb.HamiltonianFamily(2, rb.pointwise(evaluate), "mobius-2band"),
        rb.SymmetryData.constant(SX, +1, "sigma-x"),
    )


def constant_diag(entries):
    mat = np.diag(np.asarray(entries, dtype=complex))

    def evaluate(coords):
        return mat

    return rb.HamiltonianFamily(len(entries), rb.pointwise(evaluate), "constant-diag")


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)
