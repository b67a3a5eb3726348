"""One seeded random_band_limited draw as a WaveFunction, for the tests that
act on single states."""

from qpb.grids import WaveFunction
from qpb.states import random_band_limited


def random_state(grid, rng):
    """The state of a block of one: it takes the same draws from rng as one
    row of a larger block."""
    return WaveFunction(grid=grid, representation="position",
                        values=random_band_limited(grid, rng, n_states=1)[0])
