"""The spec classes' declared field rules, exercised from the declarations.

``tests/strategies.py`` reads each field's rule off its metadata, so these
properties cover every rule of every file-loaded spec class without a hand
list: every drawn spec validates and survives a dict round trip, and every
declared rule, broken alone, raises the message it declares.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import SPEC_CLASSES, specs, violations

from repro.core.config import Validated, field_rules
from repro.exceptions import ConfigurationError

RULE_CASES = [
    (cls, index)
    for cls in SPEC_CLASSES
    for index in range(len(field_rules(cls)))
]


@pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40)
@given(data=st.data())
def test_drawn_specs_validate_and_round_trip(cls, data):
    spec = data.draw(specs(cls))
    assert cls.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize(
    ("cls", "index"),
    RULE_CASES,
    ids=[f"{cls.__name__}.{field_rules(cls)[i][0]}[{i}]" for cls, i in RULE_CASES],
)
@settings(max_examples=10)
@given(data=st.data())
def test_each_declared_rule_raises_its_message(cls, index, data):
    spec, name, value, message = data.draw(violations(cls, index))
    with pytest.raises(ConfigurationError) as error:
        dataclasses.replace(spec, **{name: value})
    assert str(error.value) == message


def test_the_strategies_cover_every_validated_class():
    assert set(Validated.__subclasses__()) == set(SPEC_CLASSES)
    assert all(field_rules(cls) for cls in SPEC_CLASSES)
