"""The product form's pieces take flat vectors of N * d entries: each rejects
any other length, and the lean first-block gradient and replicated
projection equal the reshape/tile formulas bit for bit."""

import numpy as np
import pytest

from pvsmooth.core import IdentityProjector
from pvsmooth.problems import FirstBlockBallPenalty
from pvsmooth.projections import (
    BallSpec,
    KernelProjector,
    ReplicatedKernelProjector,
    project_ball,
)
from pvsmooth.prox import SupQuadraticFamily

N_BLOCKS, DIM = 10, 3


def _penalty(n_blocks, dim):
    return FirstBlockBallPenalty(BallSpec(np.full(dim, 0.1), 0.7), 3.0, n_blocks)


def _replicated(n_blocks, dim):
    return ReplicatedKernelProjector(KernelProjector(np.ones((1, dim))), n_blocks)


def _family(n_blocks, dim):
    return SupQuadraticFamily(np.linspace(-1.0, 1.0, n_blocks * dim).reshape(n_blocks, dim))


CALLS = {
    "first_block_penalty": lambda n, d: _penalty(n, d).value_and_grad,
    "replicated_projector": lambda n, d: _replicated(n, d).apply,
    "sup_quadratic": lambda n, d: lambda x: _family(n, d).prox_and_value(0.2, x),
}


@pytest.mark.parametrize("length", [31, 29, 40, 3, 0])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_product_pieces_reject_a_length_other_than_blocks_times_dim(name, length):
    call = CALLS[name](N_BLOCKS, DIM)
    call(np.linspace(-1.0, 1.0, N_BLOCKS * DIM))
    with pytest.raises(ValueError):
        call(np.linspace(-1.0, 1.0, length))


SHAPES = [(10, 3), (1, 4), (5, 1), (17, 2)]


@pytest.mark.parametrize("n_blocks, dim", SHAPES)
def test_first_block_gradient_equals_reshape_formula(n_blocks, dim):
    h = _penalty(n_blocks, dim)
    rng = np.random.default_rng(n_blocks * dim)
    for scale in (0.1, 3.0):  # inside and outside the ball
        x = scale * rng.standard_normal(n_blocks * dim)
        _, grad = h.value_and_grad(x)
        x1 = x.reshape(n_blocks, -1)[0]
        old = np.zeros_like(x).reshape(n_blocks, -1)
        old[0] = h.weight * (x1 - project_ball(h.ball, x1))
        assert grad.tobytes() == old.ravel().tobytes()


@pytest.mark.parametrize("kernel", ["ker-ones", "whole-space"])
@pytest.mark.parametrize("n_blocks, dim", SHAPES)
def test_replicated_projection_equals_tile_of_mean(n_blocks, dim, kernel):
    inner = KernelProjector(np.ones((1, dim))) if kernel == "ker-ones" else IdentityProjector()
    proj = ReplicatedKernelProjector(inner, n_blocks)
    rng = np.random.default_rng(n_blocks + dim)
    for _ in range(5):
        x = rng.standard_normal(n_blocks * dim) * 10.0 ** rng.integers(-3, 4)
        old = np.tile(inner.apply(x.reshape(n_blocks, -1).mean(axis=0)), n_blocks)
        new = proj.apply(x)
        assert new.shape == old.shape
        assert new.tobytes() == old.tobytes()
