"""Multi-modal fingerprints and the on-device personalized library.

A fingerprint is one time-window's concatenated per-modality feature
summaries plus a presence mask.  Sequences of fingerprints anchored
by switch events accumulate into a per-user library with rolling retention
and capacity-based eviction.  The module also provides the privacy side:
salted identifier hashing and desensitized summaries that carry no raw
identifiers and no absolute timestamps.
"""

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .config import LibraryConfig, NormalizationConfig
from .serialize import fmt

MODALITIES = ("pdr", "wifi", "cell", "gnss", "time")
FEATURE_DIMS = {"pdr": 3, "wifi": 3, "cell": 3, "gnss": 3, "time": 2}
N_FEATURES = 14

FEATURE_NAMES = (
    "pdr_step_rate", "pdr_heading_change", "pdr_stop_flag",
    "wifi_topk_mean", "wifi_slope", "wifi_churn",
    "cell_rsrp", "cell_rsrq", "cell_change",
    "gnss_snr", "gnss_sats", "gnss_fix",
    "time_sin", "time_cos",
)

MODALITY_SLICES = {}
_off = 0
for _m in MODALITIES:
    MODALITY_SLICES[_m] = slice(_off, _off + FEATURE_DIMS[_m])
    _off += FEATURE_DIMS[_m]

SWITCH_KINDS = ("wifi_to_cell", "cell_to_wifi", "ap_handover")


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data, salt: str = "") -> int:
    """Stable 64-bit FNV-1a hash, salted; identical across runs and machines."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = _FNV_OFFSET
    for b in salt.encode("utf-8") + bytes(data):
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_identifier(raw_id: str, salt: str) -> str:
    """Hash a raw identifier (BSSID, user id, ...) to an opaque token."""
    return f"h{fnv1a64(raw_id, salt):016x}"


def quantize(value: float, step: float) -> float:
    """Snap to the nearest multiple of ``step``."""
    return float(np.round(value / step) * step)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class Fingerprint:
    """One window: 14 concatenated features + a per-modality presence mask.

    Immutable after construction; absent modalities keep their feature
    values but are ignored by every downstream cost computation.
    """

    __slots__ = ("timestamp", "features", "present")

    def __init__(self, timestamp: float, features, present):
        features = np.asarray(features, dtype=float)
        present = np.asarray(present, dtype=bool)
        if features.shape != (N_FEATURES,):
            raise ValueError(f"features must have shape ({N_FEATURES},)")
        if present.shape != (len(MODALITIES),):
            raise ValueError("mask needs exactly one entry per modality")
        # the check runs on Python floats: cheaper than numpy on 14 values
        if not all(map(math.isfinite, features.tolist())):
            raise ValueError("fingerprint features must be finite")
        self.timestamp = float(timestamp)
        self.features = features
        self.features.setflags(write=False)
        self.present = present
        self.present.setflags(write=False)

    def replace_features(self, features) -> "Fingerprint":
        return Fingerprint(self.timestamp, features, self.present)


@dataclass(frozen=True)
class SwitchEvent:
    """A labeled network transition anchoring a fingerprint sequence."""

    time: float
    kind: str

    def __post_init__(self):
        if self.kind not in SWITCH_KINDS:
            raise ValueError(f"unknown switch kind: {self.kind!r}")


class FingerprintSequence:
    """Ordered fingerprint windows, optionally labeled with a switch event."""

    __slots__ = ("windows", "label", "created_at", "prototype_id", "_packed")

    def __init__(self, windows, label=None, created_at: int = 0,
                 prototype_id: str = ""):
        windows = tuple(windows)
        if len(windows) < 2:
            raise ValueError("a sequence needs at least 2 windows to warp")
        ts = [w.timestamp for w in windows]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("window timestamps must be strictly increasing")
        if label is not None and not (ts[0] <= label.time <= ts[-1] + 1.0):
            raise ValueError("switch event time outside the anchored sequence")
        self.windows = windows
        self.label = label
        self.created_at = int(created_at)
        self.prototype_id = prototype_id
        self._packed = None

    def __len__(self):
        return len(self.windows)

    def timestamps(self) -> np.ndarray:
        return np.array([w.timestamp for w in self.windows])

    def packed(self):
        """(features (T,14), present (T,5)) arrays; cached, read-only."""
        if self._packed is None:
            feats = np.stack([w.features for w in self.windows])
            pres = np.stack([w.present for w in self.windows])
            feats.setflags(write=False)
            pres.setflags(write=False)
            self._packed = (feats, pres)
        return self._packed

    def features(self) -> np.ndarray:
        return self.packed()[0]

    def present(self) -> np.ndarray:
        return self.packed()[1]


# ---------------------------------------------------------------------------
# window summarization
# ---------------------------------------------------------------------------


@dataclass
class WifiScan:
    time: float
    readings: list          # [(bssid: str, rssi_dbm: float), ...]


@dataclass
class CellSample:
    time: float
    cell_id: int
    rsrp: float
    rsrq: float


@dataclass
class GnssSample:
    time: float
    snr: float
    sats: float
    fix: bool


@dataclass
class RawWindow:
    """Per-modality raw samples for one window, time-aligned to the PDR ticks."""

    t_start: float
    t_end: float
    step_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    headings: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wifi_scans: list = field(default_factory=list)
    cell_samples: list = field(default_factory=list)
    gnss_samples: list = field(default_factory=list)
    hour_of_day: float = 12.0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


# The per-modality arithmetic below takes plain sequences, so that a RawWindow
# (``*_features``) and a trace's per-second arrays (``sim.fingerprint_at``)
# summarize through the same code.


def pdr_summary(n_steps: int, duration: float, headings):
    """Raw (step rate, heading change, stop flag) of one window."""
    rate = n_steps / duration if duration > 0 else 0.0
    if len(headings) >= 2:
        dh = _wrap_angle(float(headings[-1]) - float(headings[0]))
    else:
        dh = 0.0
    stop = 1.0 if n_steps == 0 else 0.0
    return rate, dh, stop


def pdr_features(window: RawWindow):
    """Raw (step rate, heading change, stop flag) before normalization."""
    return pdr_summary(len(window.step_times), window.duration, window.headings)


def least_squares_slope(times, values) -> float:
    """Slope of the least-squares line through (times, values)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2:
        return 0.0
    tc = t - t.mean()
    denom = float(np.dot(tc, tc))
    if denom == 0.0:
        return 0.0
    return float(np.dot(tc, v - v.mean()) / denom)


def scan_summary(readings, top_k: int = 3):
    """(top-K mean RSSI, strongest RSSI, strongest BSSID) of one scan."""
    if not readings:
        raise ValueError("inconsistent mask: wifi scan with no readings")
    ordered = sorted(readings, key=lambda r: (-r[1], r[0]))
    top = ordered[:top_k]
    return sum(r[1] for r in top) / len(top), ordered[0][1], ordered[0][0]


def _mean(values) -> float:
    """``float(np.mean(values))`` of a 1-D sequence, bit for bit, without
    numpy's per-call cost on the one or two values of a trace window: below
    8 values numpy adds left to right from +0.0, as this loop does (``sum``
    compensates on Python 3.12+).  Longer sequences go to ``np.mean``."""
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for v in (values.tolist() if isinstance(values, np.ndarray) else values):
        total += v
    return total / len(values)


def wifi_summary(topk_means, strongest_rssi, strongest_ids, times):
    """Raw (top-K mean RSSI, strongest-RSSI slope, strongest-AP churn) of
    per-scan summaries."""
    churn = 0.0
    if len(strongest_ids) >= 2:
        changes = sum(a != b for a, b in zip(strongest_ids, strongest_ids[1:]))
        churn = changes / (len(strongest_ids) - 1)
    return (_mean(topk_means),
            least_squares_slope(times, strongest_rssi),
            churn)


def wifi_features(window: RawWindow):
    """Raw (top-3 mean RSSI, strongest-RSSI slope, strongest-AP churn)."""
    scans = window.wifi_scans
    if not scans:
        raise ValueError("inconsistent mask: wifi marked present but window has no samples")
    per_scan = [scan_summary(scan.readings) for scan in scans]
    topk_means, strongest_rssi, strongest_ids = zip(*per_scan)
    return wifi_summary(topk_means, strongest_rssi, strongest_ids,
                        [scan.time for scan in scans])


def cell_summary(rsrp, rsrq, cell_ids):
    """Raw (mean RSRP, mean RSRQ, cell change flag) of one window's samples."""
    change = 1.0 if any(a != b for a, b in zip(cell_ids, cell_ids[1:])) else 0.0
    return _mean(rsrp), _mean(rsrq), change


def cell_features(window: RawWindow):
    samples = window.cell_samples
    if not samples:
        raise ValueError("inconsistent mask: cell marked present but window has no samples")
    return cell_summary([s.rsrp for s in samples], [s.rsrq for s in samples],
                        [s.cell_id for s in samples])


def gnss_summary(snr, sats, fix):
    """Raw (mean SNR, mean satellites, majority fix flag) of one window."""
    fix = 1.0 if _mean(fix) >= 0.5 else 0.0
    return _mean(snr), _mean(sats), fix


def gnss_features(window: RawWindow):
    samples = window.gnss_samples
    if not samples:
        raise ValueError("inconsistent mask: gnss marked present but window has no samples")
    return gnss_summary([s.snr for s in samples], [s.sats for s in samples],
                        [s.fix for s in samples])


def time_summary(hour_of_day: float):
    phase = 2.0 * math.pi * (hour_of_day % 24.0) / 24.0
    return math.sin(phase), math.cos(phase)


def assemble_fingerprint(timestamp: float, raw: dict, present: dict,
                         affine: tuple) -> Fingerprint:
    """Normalize raw per-modality features and attach the presence mask.

    ``raw`` maps every modality to its raw feature tuple; all 14 features
    normalize with one affine map ``(raw - center) / halfspan``, where
    ``affine`` is ``NormalizationConfig.affine(FEATURE_NAMES)``.  A modality
    missing from ``present`` keeps its flag set.
    """
    center, halfspan = affine
    values = np.array([v for m in MODALITIES for v in raw[m]], dtype=float)
    features = (values - np.array(center)) / np.array(halfspan)
    return Fingerprint(timestamp, features,
                       [bool(present.get(m, True)) for m in MODALITIES])


def summarize_window(window: RawWindow, present: dict,
                     norm: NormalizationConfig | None = None) -> Fingerprint:
    """Summarize one raw window into a normalized Fingerprint.

    ``present`` maps modality name -> bool.  A modality marked present with
    an empty sample set raises ("inconsistent mask"); a modality marked
    absent gets zero features, and is inert downstream.
    """
    raw = {m: (0.0,) * FEATURE_DIMS[m] for m in MODALITIES}
    if present.get("pdr", False):
        raw["pdr"] = pdr_features(window)
    if present.get("wifi", False):
        raw["wifi"] = wifi_features(window)
    if present.get("cell", False):
        raw["cell"] = cell_features(window)
    if present.get("gnss", False):
        raw["gnss"] = gnss_features(window)
    if present.get("time", False):
        raw["time"] = time_summary(window.hour_of_day)
    t_mid = 0.5 * (window.t_start + window.t_end)
    affine = (norm or NormalizationConfig()).affine(FEATURE_NAMES)
    return assemble_fingerprint(t_mid, raw, present, affine)


# ---------------------------------------------------------------------------
# the library
# ---------------------------------------------------------------------------


def sequence_content_id(feats: np.ndarray, pres: np.ndarray, kind: str,
                        salt: str) -> str:
    """Stable prototype id from a sequence's packed arrays and switch kind
    (never from wall-clock)."""
    payload = feats.tobytes() + pres.tobytes()
    return f"p{fnv1a64(payload + kind.encode('utf-8'), salt):016x}"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class LengthGroup:
    """Prototypes of one length m, as ``alignment.match`` scores them:
    ``ids`` in entry order and their ``features`` (m, P, 14) and
    ``present`` (m, P, 5) stacked time-major, both read-only.
    ``scratch(key, build)`` keeps the workspace ``build()`` makes, once per
    ``key``; ``match`` overwrites its buffers on every call.
    """

    __slots__ = ("ids", "features", "present", "_scratch")

    def __init__(self, ids, features, present):
        self.ids = tuple(ids)
        self.features = _read_only(np.stack(features, axis=1))
        self.present = _read_only(np.stack(present, axis=1))
        self._scratch = {}

    def scratch(self, key, build):
        got = self._scratch.get(key)
        if got is None:
            got = self._scratch[key] = build()
        return got


def group_by_length(entries):
    """Group ``(prototype_id, (features (T, 14), present (T, 5)))`` entries
    by length T: one ``LengthGroup`` per length, lengths in order of first
    appearance and members in entry order."""
    by_length = {}
    for pid, (feats, pres) in entries:
        by_length.setdefault(feats.shape[0], []).append((pid, feats, pres))
    return tuple(LengthGroup(*zip(*members)) for members in by_length.values())


class FingerprintLibrary:
    """Per-user store of switch-anchored sequences with aging and capacity.

    Single-writer: commits and maintenance mutate the store; reads hand out
    immutable sequences and are safe from other threads.  ``alignment.match``
    on one library must not run concurrently: it writes the live window
    into a stack, and costs and sweeps in buffers, that the library's plan
    owns (the filters keep none).  ``version`` rises with every commit,
    retention drop and capacity eviction, so a reader can tell whether what
    it derived from the store is still current.
    """

    def __init__(self, cfg: LibraryConfig | None = None):
        self.cfg = cfg or LibraryConfig()
        self.sequences: dict[str, FingerprintSequence] = {}
        self.version = 0
        self._groups = (None, ())

    def __len__(self):
        return len(self.sequences)

    def __iter__(self):
        return iter(sorted(self.sequences))

    def get(self, prototype_id: str) -> FingerprintSequence:
        return self.sequences[prototype_id]

    def items(self):
        for pid in sorted(self.sequences):
            yield pid, self.sequences[pid]

    def length_groups(self):
        """``group_by_length`` of the packed sequences in id order, the plan
        ``alignment.match`` scores from; kept, with its workspaces, until
        ``version`` changes."""
        if self._groups[0] != self.version:
            self._groups = (self.version, group_by_length(
                (pid, seq.packed()) for pid, seq in self.items()))
        return self._groups[1]

    def commit_segment(self, buffer: FingerprintSequence, event: SwitchEvent,
                       created_day: int = 0) -> str:
        """Store a pre-switch buffer labeled by the switch that occurred."""
        pid = sequence_content_id(*buffer.packed(), event.kind, self.cfg.salt)
        seq = FingerprintSequence(buffer.windows, event,
                                  created_at=created_day, prototype_id=pid)
        self.sequences[pid] = seq
        self.version += 1
        self._enforce_capacity()
        return pid

    def maintain(self, current_day: int) -> "FingerprintLibrary":
        """Drop sequences older than the retention horizon; enforce capacity.

        Idempotent: a second call with the same day is a no-op.
        """
        horizon = current_day - self.cfg.retention_days
        stale = [pid for pid, seq in self.sequences.items()
                 if seq.created_at < horizon]
        for pid in stale:
            del self.sequences[pid]
            self.version += 1
        self._enforce_capacity()
        return self

    def _enforce_capacity(self):
        while len(self.sequences) > self.cfg.capacity:
            victim = min(self.sequences,
                         key=lambda pid: (self.sequences[pid].created_at, pid))
            del self.sequences[victim]
            self.version += 1


# ---------------------------------------------------------------------------
# desensitization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesensitizedSummary:
    """Privacy-preserving digest of one sequence.

    Carries a salted hash of the prototype id, quantized per-feature
    aggregates, the switch kind, and window offsets relative to the first
    window.  No raw identifier and no absolute timestamp survives.
    """

    prototype_hash: str
    label_kind: str
    offsets: tuple
    feature_aggregates: tuple

    def serialize(self) -> str:
        # quantized values print compactly; a privacy digest carries no
        # full-precision float noise
        def q(v):
            return format(round(v, 6), ".6g")

        lines = [
            f"proto {self.prototype_hash}",
            f"kind {self.label_kind}",
            "offsets " + " ".join(q(v) for v in self.offsets),
            "features " + " ".join(q(v) for v in self.feature_aggregates),
        ]
        return "\n".join(lines) + "\n"


def desensitize(seq: FingerprintSequence, salt: str = "edge-default",
                quant_step: float = 0.1) -> DesensitizedSummary:
    """Produce the exportable summary of a sequence."""
    feats = seq.features()
    ts = seq.timestamps()
    offsets = tuple(float(t - ts[0]) for t in ts)
    aggregates = tuple(quantize(v, quant_step) for v in feats.mean(axis=0))
    kind = seq.label.kind if seq.label is not None else "unlabeled"
    source = seq.prototype_id or sequence_content_id(*seq.packed(), kind, salt)
    return DesensitizedSummary(
        prototype_hash=hash_identifier(source, salt),
        label_kind=kind,
        offsets=offsets,
        feature_aggregates=aggregates,
    )


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


# ---------------------------------------------------------------------------
# persistence: one window per line
# ---------------------------------------------------------------------------

_HEADER = ("t," + ",".join(FEATURE_NAMES) + ","
           + ",".join(f"mask_{m}" for m in MODALITIES))
_N_FIELDS = 1 + N_FEATURES + len(MODALITIES)
_INDEX_HEADER = "prototype_id,created_at,label_kind"
_INDEX_LINE = re.compile(r"(p[0-9a-f]{16}),([0-9]+),("
                         + "|".join(("unlabeled",) + SWITCH_KINDS) + ")")


def sequence_to_lines(seq: FingerprintSequence) -> list:
    return [_HEADER] + [",".join([fmt(w.timestamp), *map(fmt, w.features),
                                  *(str(int(v)) for v in w.present)])
                        for w in seq.windows]


def write_sequence(path, seq: FingerprintSequence) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(sequence_to_lines(seq)) + "\n")


def read_sequence(path, label: SwitchEvent | None = None,
                  created_at: int = 0, prototype_id: str = "") -> FingerprintSequence:
    """The sequence ``write_sequence`` wrote; another header, a row of
    another width, a mask other than 0/1 or a bad value raises, naming the
    file and line."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [(n, ln.strip()) for n, ln in enumerate(f, 1) if ln.strip()]
    if not lines or lines[0][1] != _HEADER:
        raise ValueError(f"{path}: the header is not {_HEADER!r}")
    windows = []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != _N_FIELDS:
                raise ValueError(f"expected {_N_FIELDS} fields, got {len(parts)}")
            if not set(parts[1 + N_FEATURES:]) <= {"0", "1"}:
                raise ValueError("a mask must be 0 or 1")
            windows.append(Fingerprint(float(parts[0]),
                                       [float(v) for v in parts[1:1 + N_FEATURES]],
                                       [v == "1" for v in parts[1 + N_FEATURES:]]))
        except ValueError as err:
            raise ValueError(f"{path}:{n}: {err}") from None
    return FingerprintSequence(windows, label, created_at, prototype_id)


def save_library(library: FingerprintLibrary, directory) -> None:
    """One file per sequence plus an index of (id, created_at, label kind)."""
    os.makedirs(directory, exist_ok=True)
    index_lines = []
    for pid, seq in library.items():
        write_sequence(os.path.join(directory, f"{pid}.fpseq"), seq)
        kind = seq.label.kind if seq.label is not None else "unlabeled"
        index_lines.append(f"{pid},{seq.created_at},{kind}")
    with open(os.path.join(directory, "index.txt"), "w", encoding="utf-8") as f:
        f.write(_INDEX_HEADER + "\n")
        f.write("\n".join(index_lines) + ("\n" if index_lines else ""))


def load_library(directory, cfg: LibraryConfig | None = None) -> FingerprintLibrary:
    """The library ``save_library`` wrote; another index header, more
    prototypes than ``cfg.capacity``, an index line other than (id as
    ``sequence_content_id`` makes it, integer created_at >= 0, label kind)
    or a repeated id raises, naming the file and, for a line, its number."""
    lib = FingerprintLibrary(cfg)
    index_path = os.path.join(directory, "index.txt")
    with open(index_path, "r", encoding="utf-8") as f:
        lines = [(n, ln.strip()) for n, ln in enumerate(f, 1) if ln.strip()]
    if not lines or lines[0][1] != _INDEX_HEADER:
        raise ValueError(f"{index_path}: the header is not {_INDEX_HEADER!r}")
    if len(lines) - 1 > lib.cfg.capacity:
        raise ValueError(f"{index_path}: {len(lines) - 1} prototypes exceed "
                         f"the capacity {lib.cfg.capacity}")
    for n, ln in lines[1:]:
        m = _INDEX_LINE.fullmatch(ln)
        if m is None or m[1] in lib.sequences:
            raise ValueError(f"{index_path}:{n}: " + (
                f"repeated id {m[1]}" if m else f"{ln!r} is not {_INDEX_LINE.pattern}"))
        pid, day, kind = m.groups()
        seq_path = os.path.join(directory, f"{pid}.fpseq")
        seq = read_sequence(seq_path, None, int(day), pid)
        if kind != "unlabeled":
            label = SwitchEvent(time=seq.windows[-1].timestamp, kind=kind)
            seq = FingerprintSequence(seq.windows, label, int(day), pid)
        lib.sequences[pid] = seq
    return lib
