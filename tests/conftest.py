import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from world import build_corpus, build_wiki  # noqa: E402

# `pytest --hypothesis-profile=ci`: more examples, for the equivalence oracles
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def world_corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def world_snapshot():
    return build_wiki()
