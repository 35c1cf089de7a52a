"""The records are immutable values: equal and hashed by their fields,
copied and pickled whole, and closed to assignment.  The three that check
their input refuse bad input with the same texts as before."""

import copy
import pickle

import pytest

from planecover import cli
from planecover.arrangement import Arrangement, IncidencePoint, Line, dual_hesse
from planecover.bounds import (
    ComponentBoundVerdict,
    FakePlaneReport,
    HodgeData,
    component_count_bound,
    fake_plane_involution_check,
)
from planecover.catalog import builtin_cover
from planecover.cover import (
    CurveInvariants,
    InvariantReport,
    ThreeCanonicalDecomposition,
    adjoint_class,
    invariants,
    three_canonical_decomposition,
)
from planecover.homology import (
    BranchCurves,
    CoverModel,
    Epimorphism,
    PointCheck,
    SmoothnessCertificate,
)
from planecover.intersection import DivisorClass
from planecover.symmetry import (
    KleinModel,
    RealizedSymmetry,
    RealStructureClass,
    classify_real_structures,
    klein_model,
)


def samples():
    """One instance of each record type, made by the pipeline on example3
    (two real classes) and by the bounds module."""
    cover = builtin_cover("example3")
    model = klein_model(cover)
    report = invariants(cover)
    hodge = HodgeData(h10=0, h20=36, h11=37, p_plus=0, p_minus=36, components=((1, 5, 1),))
    arr = cover.arrangement
    return {
        Line: arr.lines[0],
        IncidencePoint: arr.points[0],
        Arrangement: arr,
        HodgeData: hodge,
        ComponentBoundVerdict: component_count_bound(hodge, 3),
        FakePlaneReport: fake_plane_involution_check(),
        CoverModel: cover,
        BranchCurves: cover.curves,
        CurveInvariants: report.line_curves[0],
        InvariantReport: report,
        ThreeCanonicalDecomposition: three_canonical_decomposition(cover),
        Epimorphism: cover.phi,
        PointCheck: cover.certificate.checks[0],
        SmoothnessCertificate: cover.certificate,
        DivisorClass: adjoint_class(arr, frozenset(cover.blown_ids), cover.m),
        RealizedSymmetry: model.realized[-1],
        KleinModel: model,
        RealStructureClass: classify_real_structures(model)[-1],
    }


SAMPLES = samples()
# a dict of E_p coefficients makes a divisor class unhashable, as it was before
UNHASHABLE = {DivisorClass}


@pytest.mark.parametrize("kind", list(SAMPLES), ids=lambda t: t.__name__)
def test_record_semantics(kind):
    record = SAMPLES[kind]
    assert type(record) is kind
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is kind
        assert copied == record and not copied != record
        if kind not in UNHASHABLE:
            assert hash(copied) == hash(record)
    if kind in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    assert record._replace() == record
    assert list(record._asdict()) == list(kind._fields)
    for name in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is record._asdict()[name]
    # only the arrangement and the cover carry a __dict__, for the
    # arrangement's cached tables and the cover's Klein model
    assert hasattr(record, "__dict__") == (kind in (Arrangement, CoverModel))


def test_a_cover_keeps_its_klein_model_through_copy_and_pickle():
    cover = builtin_cover("example2")
    model = cover.klein_model
    assert vars(cover) == {"klein_model": model} and cover.klein_model is model
    assert copy.copy(cover).klein_model is model
    for copied in (copy.deepcopy(cover), pickle.loads(pickle.dumps(cover))):
        assert copied == cover and copied is not cover
        # the cycle cover -> model -> cover closes on the copy
        assert copied.klein_model.cover is copied
        assert copied.klein_model == model


def test_arrangement_is_equal_by_lines_points_and_notes():
    dh, warm = dual_hesse(), dual_hesse()
    assert Arrangement._fields == ("lines", "points", "notes")
    # t and the search state are derived on first use and are not compared
    assert warm.t == {3: 12} and warm._search.order
    assert "t" in vars(warm) and "t" not in vars(dh)
    assert warm == dh and hash(warm) == hash(dh)
    assert {warm: 1}[dh] == 1
    assert dh._replace(notes=("a note",)) != dh
    assert pickle.loads(pickle.dumps(warm)).t == warm.t


def test_invariant_report_dict_keeps_the_field_order():
    # `cli` builds the report dict from the records' fields, in field order
    # (the text renderer prints the keys in that order)
    report, dec = SAMPLES[InvariantReport], SAMPLES[ThreeCanonicalDecomposition]
    data = cli.invariants_report(builtin_cover("example3"), "builtin:example3")
    assert list(data)[: len(InvariantReport._fields)] == list(InvariantReport._fields)
    assert list(data["line_curves"][0]) == ["label", "self_int", "k_degree", "genus"]
    assert data["line_curves"] == [c._asdict() for c in report.line_curves]
    assert data["point_curves"] == [c._asdict() for c in report.point_curves]
    three = data["three_canonical"]
    assert list(three) == list(ThreeCanonicalDecomposition._fields)
    assert three["line_coeffs"] == [str(c) for c in dec.line_coeffs]
    assert three["point_coeffs"] == [str(c) for c in dec.point_coeffs]


def test_checked_records_normalise_their_input():
    phi = Epimorphism(5, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert phi.rows == ((1, 0), (4, 0), (0, 1), (0, 4))
    assert phi == Epimorphism(m=5, k=2, rows=phi.rows)
    h = HodgeData(0, 1, 3, components=[[1, 2, 1], [1, 0, 1]])
    assert h.components == ((1, 2, 1), (1, 0, 1))
    assert (h.nu, h.p_plus, h.p_minus) == (0, None, None)
    assert HodgeData(h10=0, h20=1, h11=3) == (0, 1, 3, 0, None, None, ())


ZERO_SUM = [[1, 0], [0, 1], [4, 4]]


@pytest.mark.parametrize("kwargs, message", [
    ({"m": "5", "k": 2, "rows": ZERO_SUM}, "m must be an integer, got '5'"),
    ({"m": 5, "k": True, "rows": ZERO_SUM}, "k must be an integer, got True"),
    ({"m": 5.0, "k": 2, "rows": ZERO_SUM}, "m must be an integer, got 5.0"),
    ({"m": 4, "k": 2, "rows": ZERO_SUM}, "modulus 4 is not prime"),
    ({"m": 5, "k": 0, "rows": [[], []]}, "k must be at least 1, got 0"),
    ({"m": 5, "k": 2, "rows": [[1, 0], [0, 1.5], [4, 4]]}, "phi entries must be integers, got 1.5"),
    ({"m": 5, "k": 2, "rows": [[1, 0], [0, 1], [4]]}, "row length does not match k"),
    ({"m": 5, "k": 2, "rows": [[1, 0], [0, 1], [4, 3]]},
     "invalid epimorphism: ('row sums (0, 4) are not 0 mod 5',)"),
    ({"m": 5, "k": 2, "rows": [[1, 0], [4, 0]]},
     "invalid epimorphism: ('rows do not generate (Z/mZ)^k',)"),
    ({"m": 5, "k": 2, "rows": [[1, 0], [1, 0]]},
     "invalid epimorphism: ('row sums (2, 0) are not 0 mod 5', "
     "'rows do not generate (Z/mZ)^k')"),
])
def test_epimorphism_error_texts(kwargs, message):
    with pytest.raises(ValueError) as exc:
        Epimorphism(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"h10": -1, "h20": 0, "h11": 1}, "h10 must be non-negative"),
    ({"h10": 0, "h20": -1, "h11": 1}, "h20 must be non-negative"),
    ({"h10": 0, "h20": 0, "h11": -1}, "h11 must be non-negative"),
    ({"h10": 0, "h20": 0, "h11": 1, "nu": -1}, "nu must be non-negative"),
    ({"h10": 0, "h20": 1, "h11": 3, "p_plus": 1}, "p_plus and p_minus must be given together"),
    ({"h10": 0, "h20": 1, "h11": 3, "p_minus": 1}, "p_plus and p_minus must be given together"),
    ({"h10": 0, "h20": 1, "h11": 3, "p_plus": -1, "p_minus": 3},
     "p_plus and p_minus must be non-negative"),
    ({"h10": 0, "h20": 1, "h11": 3, "p_plus": 1, "p_minus": 3},
     "p_plus + p_minus must equal h11 - 1"),
])
def test_hodge_data_error_texts(kwargs, message):
    with pytest.raises(ValueError) as exc:
        HodgeData(**kwargs)
    assert str(exc.value) == message


def test_divisor_class_error_text():
    with pytest.raises(ValueError) as exc:
        DivisorClass(1, {3: 1, 0: -1, 7: 2}, frozenset({0}))
    assert str(exc.value) == "exceptional coefficients outside the blow-up set: [3, 7]"
    assert DivisorClass(h=1, e={0: -1}, blown=frozenset({0})).e == {0: -1}

