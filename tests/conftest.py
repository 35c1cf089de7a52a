from __future__ import annotations

import pytest

from planecover import catalog
from planecover.catalog import builtin_cover
from planecover.arrangement import complete_quadrilateral, dual_hesse
from planecover.symmetry import klein_model


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test resolves its arrangements and covers afresh, so the counts
    of builds, searches, certificates and Klein models it reads are its own."""
    catalog._arrangement.cache_clear()
    catalog._kept = None


@pytest.fixture(scope="session")
def dh():
    return dual_hesse()


@pytest.fixture(scope="session")
def cq():
    return complete_quadrilateral()


@pytest.fixture(scope="session")
def cover1():
    return builtin_cover("example1")


@pytest.fixture(scope="session")
def cover2():
    return builtin_cover("example2")


@pytest.fixture(scope="session")
def cover3():
    return builtin_cover("example3")


@pytest.fixture(scope="session")
def model1(cover1):
    return klein_model(cover1)


@pytest.fixture(scope="session")
def model2(cover2):
    return klein_model(cover2)


@pytest.fixture(scope="session")
def model3(cover3):
    return klein_model(cover3)
