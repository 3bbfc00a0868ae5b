import numpy as np
import pytest
from hypothesis import settings

from cbrnn import SyntheticConfig, TrainConfig, generate_synthetic, train

# ten times the default budget, for CI's fuzz step and its bit-equality
# step: pytest tests/test_fuzz_inputs.py --hypothesis-profile=fuzz
settings.register_profile("fuzz", max_examples=1000, derandomize=True)

# the reference desk-scale run: 4 relations x 50 sentences, seed 7
REFERENCE_TRAIN_CFG = dict(
    epochs=30, seed=7, window=3, hidden_size=32, embed_dim=16,
    learning_rate=0.05,
)


@pytest.fixture(scope="session")
def synthetic_split():
    return generate_synthetic(SyntheticConfig(4, 50, seed=7))


@pytest.fixture(scope="session")
def trained_model(synthetic_split):
    return train(synthetic_split, TrainConfig(**REFERENCE_TRAIN_CFG))


@pytest.fixture(scope="session")
def chains():
    """A function of a ``ForwardCache`` giving its states per chain, a new
    (3, n, hidden) array of rows ``h_fwd``, ``h_bwd`` and ``h_comb``:
    ``h_fwd[t]`` the forward state after t+1 words, ``h_bwd[p]`` the suffix
    state for words p..n, ``h_comb[t]`` the combined state after t+1 steps.
    The cache keeps them as the rows of its ``steps``."""
    def per_chain(cache):
        steps, n = cache.steps[:, :, 0], len(cache.inputs)
        return np.stack([steps[:n, 0], steps[n - 1::-1, 1], steps[1:, 2]])
    return per_chain
