import numpy as np
import pytest

from envswitch.fingerprints import (Fingerprint, FingerprintSequence,
                                    SwitchEvent)


def quantize(value: float, step: float) -> float:
    """Snap to the nearest multiple of ``step``: the scalar reference for the
    elementwise quantization in ``cloudedge.summarize_trajectory``."""
    return float(np.round(value / step) * step)


def contains_identifier_leak(serialized: str, raw_ids, min_len: int = 4) -> bool:
    """True if any length->=min_len substring of a raw id appears in the text."""
    for raw in raw_ids:
        raw = str(raw)
        if len(raw) < min_len:
            if raw in serialized:
                return True
            continue
        for i in range(len(raw) - min_len + 1):
            if raw[i:i + min_len] in serialized:
                return True
    return False


def make_fingerprint(rng, t, present=None, features=None):
    feats = rng.normal(0.0, 0.5, size=14) if features is None else np.asarray(features, dtype=float)
    pres = np.ones(5, dtype=bool) if present is None else np.asarray(present, dtype=bool)
    return Fingerprint(t, feats, pres)


def make_sequence(rng, length=6, t0=0.0, kind=None, present=None, day=0,
                  features=None):
    windows = []
    for i in range(length):
        f = None if features is None else features[i]
        windows.append(make_fingerprint(rng, t0 + float(i + 1), present, f))
    label = None
    if kind is not None:
        label = SwitchEvent(time=windows[-1].timestamp, kind=kind)
    return FingerprintSequence(windows, label, created_at=day)


def random_packed(rng, length, int_grid=False, all_present=False):
    if int_grid:
        feats = rng.integers(-2, 3, size=(length, 14)).astype(float)
    else:
        feats = rng.normal(0.0, 1.0, size=(length, 14))
    if all_present:
        pres = np.ones((length, 5), dtype=bool)
    else:
        pres = rng.random((length, 5)) > 0.2
    return feats, pres


@pytest.fixture
def rng():
    return np.random.default_rng(0)
