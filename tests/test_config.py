"""Input contract of RunConfig: whatever string one key holds, every
accessor either raises a MacrohomError or returns finite values."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from macrohom.config import _DEFAULTS, RunConfig
from macrohom.errors import MacrohomError
from macrohom.params import PumpParams

KEYS = [(section, key) for section, kv in _DEFAULTS.items() for key in kv]

ACCESSORS = [
    ("pump",),
    ("crystal",),
    ("detection",),
    ("delay_range", "trace"),
    ("delay_range", "sweep"),
    ("tau_grid",),
    ("sweep_gains",),
    ("mc_tau_points",),
    ("mc_freq_bins",),
    ("fit_data_path",),
    ("calibrated_crystal",),
]

SPECIAL = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300", "0", "",
           "0,nan", "1,inf", "5.5,1e300", "auto"]

VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
    st.sampled_from(SPECIAL),
    st.text(max_size=12),
)


def is_finite(value):
    if isinstance(value, str):
        return True
    if dataclasses.is_dataclass(value):
        return all(is_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    if isinstance(value, (list, tuple)):
        return all(is_finite(v) for v in value)
    return math.isfinite(value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(KEYS), VALUES)
def test_accessors_raise_or_return_finite(section_key, value):
    section, key = section_key
    raw = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    raw[section][key] = value
    config = RunConfig(raw=raw)
    for name, *args in ACCESSORS:
        try:
            result = getattr(config, name)(*args)
        except MacrohomError:
            continue
        assert is_finite(result), (section, key, value, name, result)


def test_pump_defaults_are_the_reference_config_pump():
    assert PumpParams() == RunConfig.load(None).pump()
