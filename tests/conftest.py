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


def mirrored_copies(image, real):
    """The ids written from their tau-image: above the image, where Real."""
    return np.flatnonzero(real & (image < np.arange(image.size)))


def assert_copies_mirror(values, copies, image, sign):
    """Each copy holds its image's value conjugated (sign +1) or transposed
    (sign -1), bit for bit."""
    src, plus = values[image[copies]], sign[copies] > 0
    assert np.array_equal(values[copies[plus]], src[plus].conj())
    assert np.array_equal(values[copies[~plus]], src[~plus].swapaxes(1, 2))


def assert_bundle_mirrors(bundle):
    """A bundle with J = 1 writes its links, plaquette fluxes (at rank one)
    and sewing matrices at the higher id of each orbit whose sites are
    mirrored from the lower id; returns the number of links so written."""
    lat, mirrored = bundle.lat, bundle.mirrored
    ends = mirrored[lat.link_tail] & mirrored[lat.link_head]
    links = mirrored_copies(lat.link_image, ends)
    assert_copies_mirror(bundle.links.u, links, lat.link_image, lat.link_image_sign)
    w, tau = bundle.sewing.w, lat.involution
    sites = mirrored_copies(tau, mirrored)
    assert np.array_equal(w[sites], w[tau[sites]].conj())
    if lat.dim == 2 and bundle.links.rank == 1:
        corners, image = lat.plaquette_corners, lat.plaquette_image
        real = (mirrored[corners] | (corners < 0)).all(axis=1)
        plaquettes = mirrored_copies(image, real)
        assert_copies_mirror(
            bundle.curvature.f, plaquettes, image, lat.plaquette_image_sign
        )
    return links.size
