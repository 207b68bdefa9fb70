"""Value semantics of the package's value classes, checked against dataclass
twins (tests/conftest.py): equality, hashing, repr, immutability and
construction, on values built by the package's own constructors."""

from dataclasses import fields

import pytest
from conftest import TWINS

from lplattice import (
    ConditionalDistribution,
    DensityChange,
    Refinement,
    SliceProfile,
    Space,
    StepFunction,
    Sublattice,
    TypeDatum,
    cond_distribution,
    density_change,
    make_space,
    refine_space,
    slice_independent,
    slice_profile,
    stationarity_check,
    star_independent,
    step_function,
    type_datum,
)
from lplattice.independence import IndependenceVerdict, StationarityResult, Witness
from lplattice.oracles import RandomInstance, random_instance
from lplattice.verify import (
    MaskedDependenceFixture,
    PairwiseIndependenceFixture,
    SuiteResult,
    masked_dependence_example,
    pairwise_independence_example,
)

CLASSES = {
    cls.__name__: cls
    for cls in (
        Space, StepFunction, Refinement, DensityChange, Sublattice, SliceProfile, TypeDatum,
        ConditionalDistribution, Witness, IndependenceVerdict, StationarityResult,
        RandomInstance, MaskedDependenceFixture, PairwiseIndependenceFixture, SuiteResult,
    )
}
MUTABLE = {"SuiteResult"}


def samples(variant: int) -> dict:
    """One value of each class, built afresh on each call; the two variants
    differ in every class."""
    p = (2.0, 3.0)[variant]
    fx = masked_dependence_example(p)
    space, f, C = fx.space, fx.f, fx.C
    verdict = slice_independent(f, fx.B, C)
    twos = dict.fromkeys(space.ids(), 2.0)
    # f is dependent, chi lies in C: stationarity's hypotheses fail, then hold
    side = (fx.f, fx.chi)[variant]
    return {
        "Space": make_space(space.cells, p),
        "StepFunction": step_function(space, {"[0,1]": 2.0, "(1,2]": 0.0}),
        "Refinement": refine_space(space, {"[0,1]": (0.25, 0.75)}),
        "DensityChange": density_change(space, step_function(space, twos)),
        "Sublattice": C,
        "SliceProfile": slice_profile(f, C),
        "TypeDatum": type_datum(f, fx.B),
        "ConditionalDistribution": cond_distribution([f, fx.chi_top], C),
        "Witness": verdict.witness,
        "IndependenceVerdict": star_independent([f], fx.B, C),
        "StationarityResult": stationarity_check([side], [side], C, fx.B),
        "RandomInstance": random_instance(variant, 4),
        "MaskedDependenceFixture": fx,
        "PairwiseIndependenceFixture": pairwise_independence_example(p),
        "SuiteResult": SuiteResult("masked-dependence-fixture", variant == 0, f"p = {p:g}", None),
    }


def twin_of(value):
    twin = TWINS[type(value).__name__]
    return twin(*[getattr(value, field.name) for field in fields(twin)])


@pytest.fixture(scope="module")
def built():
    return samples(0), samples(0), samples(1)


NAMES = sorted(CLASSES)


def test_every_class_has_a_sample_and_a_twin():
    assert set(samples(0)) == set(CLASSES) == set(TWINS)
    for name, value in samples(0).items():
        assert type(value) is CLASSES[name]


@pytest.mark.parametrize("name", NAMES)
def test_equality_agrees_with_the_twin(name, built):
    a, same, other = (values[name] for values in built)
    ta, tsame, tother = map(twin_of, (a, same, other))
    assert same is not a
    assert (ta == tsame, ta == tother) == (True, False)
    for x, tx in ((a, ta), (same, tsame), (other, tother)):
        assert (a == x) is (ta == tx)
        assert (a != x) is (ta != tx)
    # operands of another class: a tuple of the field values, a string
    for x in (tuple(getattr(a, field.name) for field in fields(ta)), name):
        assert (a == x) is (ta == x) is (x == a) is False
        assert (a != x) is (ta != x) is (x != a) is True
    # a value and its twin are of different classes
    assert (a == ta) is (ta == a) is False
    assert (a != ta) is (ta != a) is True


@pytest.mark.parametrize("name", NAMES)
def test_hashing_agrees_with_the_twin(name, built):
    a, same, _ = (values[name] for values in built)
    try:
        want = hash(twin_of(a))
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == want == hash(same)


def test_which_classes_hash():
    hashable = set()
    for name, value in samples(0).items():
        try:
            hash(value)
        except TypeError:
            continue
        hashable.add(name)
    assert hashable == {"Space", "StationarityResult"}
    # a verdict hashes when it holds no witness (a witness holds step functions)
    fx = masked_dependence_example()
    verdict = star_independent([fx.chi], fx.B, fx.C)
    assert verdict.witness is None
    assert hash(verdict) == hash(twin_of(verdict)) == hash((True, None))


@pytest.mark.parametrize("name", NAMES)
def test_repr_agrees_with_the_twin(name, built):
    a = built[0][name]
    assert repr(a) == repr(twin_of(a))
    assert repr(a).startswith(f"{name}(")


@pytest.mark.parametrize("name", NAMES)
def test_immutability_agrees_with_the_twin(name):
    a, other = samples(0)[name], samples(1)[name]  # not the shared samples: SuiteResult changes
    names = [field.name for field in fields(TWINS[name])]
    if name in MUTABLE:
        for obj in (a, twin_of(a)):
            setattr(obj, names[0], getattr(other, names[0]))
            assert getattr(obj, names[0]) == getattr(other, names[0])
            delattr(obj, names[1])
            assert not hasattr(obj, names[1])
        return
    for obj in (a, twin_of(a)):
        before = repr(obj)
        for field in names + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(other, field, None))
            with pytest.raises(AttributeError):
                delattr(obj, field)
        assert repr(obj) == before


@pytest.mark.parametrize("name", NAMES)
def test_construction_agrees_with_the_twin(name, built):
    a = built[0][name]
    cls, twin = CLASSES[name], TWINS[name]
    values = [getattr(a, field.name) for field in fields(twin)]
    by_name = dict(zip([field.name for field in fields(twin)], values))
    assert cls(*values) == cls(**by_name) == a
    assert twin(*values) == twin(**by_name) == twin_of(a)
    for args, kwargs in ((values + [None], {}), (values[:-1], {}), (values, {"extra": None})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            twin(*args, **kwargs)


def test_the_very_same_nan_compares_equal():
    # fields compare as tuples do: the same object is equal to itself, even
    # nan (3.13's dataclasses compare field by field, where it would not be)
    w = samples(0)["Witness"]
    nan = float("nan")
    args = (w.kind, w.element, nan, w.over_b, w.over_c, nan)
    assert Witness(*args) == Witness(*args)
    assert Witness(*args) != Witness(*args[:5], float("nan"))
