import pytest

from obstruction.complexes import Facet, Vertex
from obstruction.models import induce_model

from helpers import canonical_complex

# A five-facet complex over three agents, used throughout as a small model
# with a rich relation structure. Values per facet, ordered by color:
DEMO_FACETS = [
    (2, 1, 0),
    (2, 2, 1),
    (0, 3, 2),
    (0, 1, 2),
    (1, 2, 2),
]


def build_demo_model():
    facets = [
        Facet(Vertex(color, value) for color, value in enumerate(values))
        for values in DEMO_FACETS
    ]
    return induce_model(canonical_complex(2, facets), "obs")


@pytest.fixture
def demo_model():
    return build_demo_model()
