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
