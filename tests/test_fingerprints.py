import re

import numpy as np
import pytest

from envswitch.alignment import MetricModel, dtw
from envswitch.config import LibraryConfig
from envswitch.fingerprints import (MODALITIES, Fingerprint, FingerprintLibrary,
                                    FingerprintSequence, RawWindow, SwitchEvent, WifiScan,
                                    CellSample, GnssSample, cell_summary,
                                    fnv1a64, gnss_summary, hash_identifier,
                                    pdr_features, read_sequence,
                                    save_library, load_library,
                                    summarize_window, wifi_features,
                                    wifi_summary, write_sequence)

from conftest import make_fingerprint, make_sequence


def window_with_rssi(rssi_values, t0=0.0, dur=None):
    dur = dur if dur is not None else float(len(rssi_values))
    scans = [WifiScan(t0 + float(i), [("02:aa:bb:cc:dd:01", v)])
             for i, v in enumerate(rssi_values)]
    return RawWindow(
        t_start=t0, t_end=t0 + dur,
        step_times=np.array([t0 + 0.2, t0 + 0.8]),
        headings=np.array([0.1, 0.1, 0.1]),
        wifi_scans=scans,
        cell_samples=[CellSample(t0, 501, -85.0, -10.0)],
        gnss_samples=[GnssSample(t0, 5.0, 3.0, False)],
        hour_of_day=10.0)


ALL_PRESENT = {m: True for m in ("pdr", "wifi", "cell", "gnss", "time")}


class TestTypes:
    def test_fingerprint_mask_shape(self, rng):
        with pytest.raises(ValueError):
            Fingerprint(0.0, np.zeros(13), np.ones(5, bool))
        with pytest.raises(ValueError):
            Fingerprint(0.0, np.zeros(14), np.ones(4, bool))

    @pytest.mark.parametrize("features, present, message", [
        (np.zeros(13), np.ones(5, bool), r"features must have shape \(14,\)"),
        (np.zeros((1, 14)), np.ones(5, bool), r"features must have shape \(14,\)"),
        (np.zeros(14), np.ones(6, bool), "one entry per modality"),
        (np.zeros(14), np.ones((1, 5), bool), "one entry per modality"),
        (np.r_[np.zeros(13), np.nan], np.ones(5, bool), "features must be finite"),
        (np.r_[np.inf, np.zeros(13)], np.ones(5, bool), "features must be finite"),
        (np.r_[np.zeros(7), -np.inf, np.zeros(6)], np.ones(5, bool),
         "features must be finite"),
    ])
    def test_fingerprint_rejects_each_invalid_input(self, features, present,
                                                    message):
        with pytest.raises(ValueError, match=message):
            Fingerprint(0.0, features, present)

    @pytest.mark.parametrize("timestamp", [np.nan, np.inf, -np.inf, "nan"])
    def test_fingerprint_rejects_a_non_finite_timestamp(self, timestamp):
        with pytest.raises(ValueError, match="timestamp must be finite"):
            Fingerprint(timestamp, np.zeros(14), np.ones(5, bool))

    def test_fingerprint_accepts_the_edges(self):
        big = np.full(14, np.finfo(float).max)      # finite, though the sum is not
        fp = Fingerprint(0.0, big, np.ones(5, bool))
        assert fp.features.tobytes() == big.tobytes()

    def test_sequence_needs_two_windows(self, rng):
        with pytest.raises(ValueError):
            FingerprintSequence([make_fingerprint(rng, 1.0)])

    def test_sequence_timestamps_strictly_increase(self, rng):
        a = make_fingerprint(rng, 1.0)
        b = make_fingerprint(rng, 1.0)
        with pytest.raises(ValueError):
            FingerprintSequence([a, b])

    def test_switch_event_kind(self):
        with pytest.raises(ValueError):
            SwitchEvent(1.0, "warp_drive")


class TestSummarize:
    def test_constant_rssi_has_zero_slope(self):
        w = window_with_rssi([-50.0, -50.0], dur=1.0)
        feats = wifi_features(w)
        assert feats[1] == 0.0

    def test_slope_least_squares_oracle(self):
        # independent oracle: closed-form least squares on 4 points at 1 Hz
        t = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([-50.0, -54.0, -58.0, -62.0])
        tc = t - t.mean()
        expected = float(np.dot(tc, v - v.mean()) / np.dot(tc, tc))
        assert expected == -4.0
        w = window_with_rssi([-50.0, -54.0, -58.0, -62.0])
        assert wifi_features(w)[1] == pytest.approx(-4.0)

    def test_all_absent_is_valid_and_cost_inert(self, rng):
        w = window_with_rssi([-50.0])
        absent = {m: False for m in ALL_PRESENT}
        fp = summarize_window(w, absent)
        assert not fp.present.any()
        # toggling features of masked-out modalities changes nothing downstream
        model = MetricModel.identity()
        other = make_fingerprint(rng, 5.0)
        seq_a = FingerprintSequence([fp, make_fingerprint(rng, 9.0, present=np.zeros(5, bool))])
        noisy = Fingerprint(fp.timestamp, rng.normal(0, 3, 14), fp.present)
        seq_b = FingerprintSequence([noisy, seq_a.windows[1]])
        ref = FingerprintSequence([other, make_fingerprint(rng, 6.0)])
        assert dtw(model, seq_a, ref, 3).distance == dtw(model, seq_b, ref, 3).distance

    def test_present_but_empty_is_inconsistent_mask(self):
        w = RawWindow(t_start=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="inconsistent mask"):
            summarize_window(w, {"wifi": True})

    def test_normalization_applied(self):
        w = window_with_rssi([-65.0, -65.0], dur=1.0)
        fp = summarize_window(w, ALL_PRESENT)
        # -65 dBm is the center of the configured RSSI span
        assert fp.features[3] == pytest.approx(0.0, abs=1e-12)

    def test_stop_flag(self):
        w = window_with_rssi([-50.0], dur=1.0)
        w.step_times = np.zeros(0)
        rate, _, stop = pdr_features(w)
        assert rate == 0.0 and stop == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_summary_means_equal_np_mean(self, rng, n):
        # the helpers' plain-arithmetic means against np.mean, bit for bit,
        # on arrays and on lists, signed zeros and mixed magnitudes included
        def bits(v):
            return np.float64(v).tobytes()

        for trial in range(200):
            a, b = rng.normal(0.0, 1.0, (2, n)) * 10.0 ** rng.integers(-3, 4, (2, n))
            if trial % 4 == 0:
                a[rng.integers(0, n)] = -0.0
            if trial % 9 == 0:
                b[:] = -0.0
            fix = rng.random(n) < 0.5
            ids = [f"c{k}" for k in rng.integers(0, 2, n)]
            for x, y, f in ((a, b, fix), (a.tolist(), b.tolist(), fix.tolist())):
                rsrp, rsrq, _ = cell_summary(x, y, ids)
                assert (bits(rsrp), bits(rsrq)) == (bits(np.mean(x)), bits(np.mean(y)))
                snr, sats, majority = gnss_summary(x, y, f)
                assert (bits(snr), bits(sats)) == (bits(np.mean(x)), bits(np.mean(y)))
                assert majority == (1.0 if np.mean(f) >= 0.5 else 0.0)
                topk = wifi_summary(x, y, ids, np.arange(n, dtype=float))[0]
                assert bits(topk) == bits(np.mean(x))


class TestLibrary:
    def test_commit_nominal(self, rng):
        lib = FingerprintLibrary()
        buf = make_sequence(rng, 10)
        event = SwitchEvent(buf.windows[-1].timestamp, "wifi_to_cell")
        pid = lib.commit_segment(buf, event, created_day=0)
        assert len(lib) == 1
        assert lib.get(pid).label.kind == "wifi_to_cell"

    def test_capacity_evicts_oldest_first(self, rng):
        lib = FingerprintLibrary(LibraryConfig(capacity=4))
        pids = []
        for day in range(5):
            buf = make_sequence(rng, 6, day=day)
            event = SwitchEvent(buf.windows[-1].timestamp, "wifi_to_cell")
            pids.append(lib.commit_segment(buf, event, created_day=day))
        assert len(lib) == 4
        assert pids[0] not in lib.sequences
        assert all(p in lib.sequences for p in pids[1:])

    def test_version_rises_on_every_mutation(self, rng):
        lib = FingerprintLibrary(LibraryConfig(capacity=2))
        assert lib.version == 0

        def commit(day):
            buf = make_sequence(rng, 6, day=day)
            lib.commit_segment(buf, SwitchEvent(buf.windows[-1].timestamp,
                                                "wifi_to_cell"), created_day=day)

        commit(0)
        commit(1)
        assert lib.version == 2
        commit(2)                     # one commit plus one capacity eviction
        assert (len(lib), lib.version) == (2, 4)
        for pid, _ in lib.items():    # reads change nothing
            lib.get(pid)
        assert lib.version == 4


class TestPersistence:
    def test_sequence_roundtrip(self, rng, tmp_path):
        seq = make_sequence(rng, 8, kind="cell_to_wifi")
        path = tmp_path / "seq.fpseq"
        write_sequence(path, seq)
        back = read_sequence(path)
        for got, want in zip(back.packed(), seq.packed()):
            assert np.array_equal(got, want)
        assert [w.timestamp for w in back.windows] == [w.timestamp for w in seq.windows]

    def write_rows(self, rng, tmp_path, edit):
        """A written sequence's lines, after ``edit(lines)``, in a new file."""
        path = tmp_path / "seq.fpseq"
        write_sequence(path, make_sequence(rng, 4))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_header_with_quality_columns_refused(self, rng, tmp_path):
        # the format written before the quality columns were dropped
        def add_quality(lines):
            lines[0] += "," + ",".join(f"q_{m}" for m in MODALITIES)
            for i in range(1, len(lines)):
                lines[i] += ",1" * len(MODALITIES)

        path = self.write_rows(rng, tmp_path, add_quality)
        with pytest.raises(ValueError, match=re.escape(f"{path}: the header")):
            read_sequence(path)

    def test_row_with_extra_fields_refused(self, rng, tmp_path):
        def extend(lines):
            lines[2] += ",1"

        path = self.write_rows(rng, tmp_path, extend)
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 20 fields, got 21")):
            read_sequence(path)

    def test_rows_out_of_time_order_refused(self, rng, tmp_path):
        def swap(lines):
            lines[2], lines[3] = lines[3], lines[2]

        path = self.write_rows(rng, tmp_path, swap)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: window timestamps must be strictly increasing")):
            read_sequence(path)

    def test_one_row_refused(self, rng, tmp_path):
        def keep_one(lines):
            del lines[2:]

        path = self.write_rows(rng, tmp_path, keep_one)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: a sequence needs at least 2 windows to warp")):
            read_sequence(path)

    def test_short_row_refused(self, rng, tmp_path):
        def shorten(lines):
            lines[4] = lines[4].rsplit(",", 1)[0]

        path = self.write_rows(rng, tmp_path, shorten)
        with pytest.raises(ValueError, match=re.escape(f"{path}:5: expected 20 fields, got 19")):
            read_sequence(path)

    @pytest.mark.parametrize("bit", ["2", "-1", "true", ""])
    def test_mask_other_than_0_or_1_refused(self, rng, tmp_path, bit):
        def set_mask(lines):
            lines[1] = lines[1].rsplit(",", 1)[0] + "," + bit

        path = self.write_rows(rng, tmp_path, set_mask)
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: a mask must be 0 or 1")):
            read_sequence(path)

    @pytest.mark.parametrize("times, line", [(["0.5", "nan", "2.5"], 3),
                                             (["inf", "nan"], 2),
                                             (["1.0", "2.0", "3.0", "-inf"], 5)])
    def test_non_finite_timestamp_refused(self, rng, tmp_path, times, line):
        # a NaN compares false, so it would pass the time-order check
        def set_times(lines):
            del lines[1 + len(times):]
            for i, t in enumerate(times, 1):
                lines[i] = t + "," + lines[i].split(",", 1)[1]

        path = self.write_rows(rng, tmp_path, set_times)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{line}: fingerprint timestamp must be finite")):
            read_sequence(path)

    def test_library_with_a_non_finite_timestamp_refused(self, rng, tmp_path):
        lib = FingerprintLibrary()
        for day in range(2):
            buf = make_sequence(rng, 4, day=day)
            lib.commit_segment(buf, SwitchEvent(buf.windows[-1].timestamp,
                                                "wifi_to_cell"), created_day=day)
        save_library(lib, tmp_path / "lib")
        path = tmp_path / "lib" / f"{sorted(lib.sequences)[1]}.fpseq"
        lines = path.read_text().splitlines()
        lines[2] = "nan," + lines[2].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: fingerprint timestamp must be finite")):
            load_library(tmp_path / "lib")

    def test_library_snapshot_roundtrip(self, rng, tmp_path):
        lib = FingerprintLibrary()
        for day in range(3):
            buf = make_sequence(rng, 6, day=day)
            lib.commit_segment(buf, SwitchEvent(buf.windows[-1].timestamp,
                                                "wifi_to_cell"), created_day=day)
        save_library(lib, tmp_path / "lib")
        back = load_library(tmp_path / "lib")
        assert sorted(back.sequences) == sorted(lib.sequences)
        for pid in lib.sequences:
            assert np.array_equal(back.get(pid).packed()[0], lib.get(pid).packed()[0])
            assert back.get(pid).created_at == lib.get(pid).created_at
            assert back.get(pid).label.kind == lib.get(pid).label.kind

    def test_library_over_capacity_refused(self, rng, tmp_path):
        lib = FingerprintLibrary()
        for day in range(6):
            buf = make_sequence(rng, 4, day=day)
            lib.commit_segment(buf, SwitchEvent(buf.windows[-1].timestamp,
                                                "wifi_to_cell"), created_day=day)
        save_library(lib, tmp_path / "lib")
        index = tmp_path / "lib" / "index.txt"
        with pytest.raises(ValueError, match=re.escape(
                f"{index}: 6 prototypes exceed the capacity 3")):
            load_library(tmp_path / "lib", LibraryConfig(capacity=3))
        assert len(load_library(tmp_path / "lib", LibraryConfig(capacity=6))) == 6

    def write_index(self, rng, tmp_path, edit):
        """A saved 3-prototype library whose index lines went through
        ``edit(lines)``; returns the library directory and the index path."""
        lib = FingerprintLibrary()
        for day in range(3):
            buf = make_sequence(rng, 4, day=day)
            lib.commit_segment(buf, SwitchEvent(buf.windows[-1].timestamp,
                                                "wifi_to_cell"), created_day=day)
        save_library(lib, tmp_path / "lib")
        index = tmp_path / "lib" / "index.txt"
        lines = index.read_text().splitlines()
        edit(lines)
        index.write_text("\n".join(lines) + "\n")
        return tmp_path / "lib", index

    def test_index_with_another_header_refused(self, rng, tmp_path):
        def rename(lines):
            lines[0] = "id,created_at,label_kind"

        directory, index = self.write_index(rng, tmp_path, rename)
        with pytest.raises(ValueError, match=re.escape(f"{index}: the header")):
            load_library(directory)

    def test_index_line_with_extra_field_refused(self, rng, tmp_path):
        def extend(lines):
            lines[2] += ",1"

        directory, index = self.write_index(rng, tmp_path, extend)
        with pytest.raises(ValueError, match=re.escape(f"{index}:3: ")):
            load_library(directory)

    @pytest.mark.parametrize("pid", ["../p0123456789abcdef", "p0123456789ABCDEF",
                                     "p0123456789abcde", "q0123456789abcdef"])
    def test_index_id_other_than_a_content_id_refused(self, rng, tmp_path, pid):
        def set_id(lines):
            lines[1] = pid + "," + lines[1].split(",", 1)[1]

        directory, index = self.write_index(rng, tmp_path, set_id)
        with pytest.raises(ValueError, match=re.escape(f"{index}:2: '{pid},")):
            load_library(directory)

    @pytest.mark.parametrize("day", ["-1", "1.5", "x", ""])
    def test_index_created_at_other_than_a_count_refused(self, rng, tmp_path, day):
        def set_day(lines):
            pid, _, kind = lines[3].split(",")
            lines[3] = f"{pid},{day},{kind}"

        directory, index = self.write_index(rng, tmp_path, set_day)
        with pytest.raises(ValueError, match=re.escape(f"{index}:4: ")):
            load_library(directory)

    def test_index_label_kind_other_than_a_switch_kind_refused(self, rng, tmp_path):
        def set_kind(lines):
            lines[1] = lines[1].rsplit(",", 1)[0] + ",wifi_to_wifi"

        directory, index = self.write_index(rng, tmp_path, set_kind)
        with pytest.raises(ValueError, match=re.escape(f"{index}:2: ")):
            load_library(directory)

    def test_index_with_a_repeated_id_refused(self, rng, tmp_path):
        def repeat(lines):
            lines.append(lines[1])

        directory, index = self.write_index(rng, tmp_path, repeat)
        pid = index.read_text().splitlines()[1].split(",")[0]
        with pytest.raises(ValueError, match=re.escape(f"{index}:5: repeated id {pid}")):
            load_library(directory)


def bytewise_fnv1a64(data, salt: str = "") -> int:
    """FNV-1a one byte at a time, h <- (h ^ b) * P mod 2^64, written out
    apart from ``fnv1a64`` so that any rewrite of it is held to the
    definition."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = 0xCBF29CE484222325
    for b in salt.encode("utf-8") + bytes(data):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def test_fnv1a64_equals_the_bytewise_oracle():
    rng = np.random.default_rng(64)
    data = rng.integers(0, 256, 2000, dtype=np.uint8).tobytes()
    for n in [*range(65), *range(65, 2001, 97), 2000]:
        for salt in ("", "bssid"):
            assert fnv1a64(data[:n], salt) == bytewise_fnv1a64(data[:n], salt), (n, salt)
    for text in ("", "a", "selector:13", "round:3:edge-7:13", "sélecteur\u2603" * 40):
        want = bytewise_fnv1a64(text, "s")
        assert fnv1a64(text, "s") == want == fnv1a64(text.encode("utf-8"), "s")
    # the published FNV-1a 64 values
    assert fnv1a64("") == 0xCBF29CE484222325 and fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_fnv1a64_stable_and_salted():
    assert fnv1a64("abc") == fnv1a64("abc")
    assert fnv1a64("abc", "s1") != fnv1a64("abc", "s2")
    assert hash_identifier("02:aa:bb:cc:dd:ee", "u").startswith("h")
