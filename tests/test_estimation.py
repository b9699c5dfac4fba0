import contextlib
import csv
import io
import math
import os
import re
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gaussrisk.errors import (
    DegenerateBankError,
    DegenerateModelError,
    DegenerateSeriesWarning,
    DomainError,
    InvalidCovarianceError,
    PanelFormatError,
    UnknownBankError,
)
import gaussrisk.estimation
from gaussrisk.estimation import (
    _CANCELLATION_LIMIT,
    MomentEstimate,
    ReturnPanel,
    _parse_exact,
    estimate_moments,
    load_panel,
    pair_for_bank,
)
from gaussrisk.mc import McConfig, SharedDraw, sample_pair
from gaussrisk.measures import GaussianPair, full_report
from gaussrisk.normal import RiskParams
from helpers import normal_var


def panel_from_csv(text: str) -> ReturnPanel:
    return load_panel(io.StringIO(text))


def refuse_exact_loop(monkeypatch) -> None:
    def refuse(source):
        raise AssertionError("plain body sent to the exact loop")

    monkeypatch.setattr(gaussrisk.estimation, "_parse_exact", refuse)


def loadtxt_sources(monkeypatch) -> list:
    """The first argument of every later ``np.loadtxt`` call, in order."""
    sources = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(
        np, "loadtxt", lambda source, **kwargs: sources.append(source) or loadtxt(source, **kwargs)
    )
    return sources


class TestLoadPanel:
    def test_minimal_panel(self):
        panel = panel_from_csv("A,B\n1,2\n3,4\n5,6\n")
        assert panel.labels == ("A", "B")
        assert panel.observations.shape == (3, 2)
        assert panel.observations[2, 1] == 6.0

    def test_date_column_skipped(self):
        panel = panel_from_csv(
            "date,A,B\n2020-01-01,1,2\n2020-01-02,3,4\n2020-01-03,5,6\n"
        )
        assert panel.labels == ("A", "B")
        assert panel.observations.shape == (3, 2)

    def test_date_header_case_insensitive(self):
        panel = panel_from_csv("Date,A,B\nx,1,2\ny,3,4\nz,5,6\n")
        assert panel.labels == ("A", "B")

    def test_nan_cell_named(self):
        with pytest.raises(PanelFormatError, match=r"row 3.*'B'"):
            panel_from_csv("A,B\n1,2\n3,NaN\n5,6\n")

    def test_non_numeric_cell_named(self):
        with pytest.raises(PanelFormatError, match=r"row 2.*'A'"):
            panel_from_csv("A,B\noops,2\n3,4\n5,6\n")

    def test_ragged_row_named(self):
        with pytest.raises(PanelFormatError, match="row 3"):
            panel_from_csv("A,B\n1,2\n3\n5,6\n")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PanelFormatError, match="duplicate"):
            panel_from_csv("A,A\n1,2\n3,4\n5,6\n")

    def test_duplicate_label_message(self):
        with pytest.raises(PanelFormatError) as excinfo:
            panel_from_csv("A,B,A\n1,2,3\n4,5,6\n7,8,9\n")
        assert excinfo.value.args == ("duplicate bank labels: ['A']",)

    def test_too_few_rows_rejected(self):
        with pytest.raises(PanelFormatError, match="at least 3"):
            panel_from_csv("A,B\n1,2\n3,4\n")

    def test_empty_label_rejected(self):
        with pytest.raises(PanelFormatError, match="empty"):
            panel_from_csv("A,\n1,2\n3,4\n5,6\n")

    def test_empty_input_rejected(self):
        with pytest.raises(PanelFormatError, match="header"):
            panel_from_csv("")

    def test_blank_lines_ignored(self):
        panel = panel_from_csv("A,B\n1,2\n\n3,4\n5,6\n\n")
        assert panel.observations.shape == (3, 2)

    def test_byte_order_mark_dropped_from_stream(self):
        panel = panel_from_csv("\ufeffdate,A,B\nd1,1,2\nd2,3,4\nd3,5,6\n")
        assert panel.labels == ("A", "B")

    def test_byte_order_mark_dropped_from_file(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("date,A,B\nd1,1,2\nd2,3,4\nd3,5,6\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        panel = load_panel(path)
        assert panel.labels == ("A", "B")
        assert panel.observations[0, 0] == 1.0

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"])  # underscore, Arabic-Indic digits
    def test_python_only_float_syntax_rejected(self, cell):
        with pytest.raises(PanelFormatError, match=r"row 2.*'A'"):
            panel_from_csv(f"A,B\n{cell},2\n3,4\n5,6\n")

    def test_underscore_in_date_column_accepted(self):
        panel = panel_from_csv("date,A,B\nt_1,1,2\nt_2,3,4\nt_3,5,6\n")
        assert panel.observations[0, 0] == 1.0

    def test_observations_frozen(self):
        panel = panel_from_csv("A,B\n1,2\n3,4\n5,6\n")
        with pytest.raises(ValueError):
            panel.observations[0, 0] = 99.0

    def test_caller_array_left_writeable(self):
        obs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
        panel = ReturnPanel(("A", "B"), obs)
        assert obs.flags.writeable
        obs[0, 0] = 99.0
        assert panel.observations[0, 0] == 1.0
        assert not panel.observations.flags.writeable

    @pytest.mark.parametrize("date", ["", "d,"])
    def test_extra_trailing_cell_rejected_as_ragged(self, date):
        header = "date,A,B" if date else "A,B"
        width = 3 if date else 2
        with pytest.raises(
            PanelFormatError, match=f"^ragged row 3: expected {width} cells, got {width + 1}$"
        ):
            panel_from_csv(f"{header}\n{date}1,2\n{date}3,4,\n{date}5,6\n")

    # np.loadtxt strips both around a number; a panel cell may hold neither
    @pytest.mark.parametrize("space", ["\u00a0", "\x1c"])  # no-break space, file separator
    def test_unicode_space_around_number_rejected(self, space):
        with pytest.raises(PanelFormatError, match=r"^non-numeric cell .* at row 3, column 'B'$"):
            panel_from_csv(f"A,B\n1,2\n3,{space}4{space}\n5,6\n")

    def test_quoted_numeric_cell_accepted(self):
        panel = panel_from_csv('A,B\n"1.5",2\n3,"4"\n5,6\n')
        assert panel.observations.tolist() == [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_quote_opening_a_date_cell_joins_lines(self):
        panel = panel_from_csv('date,A,B\n"d1,1,2\nd2",3,4\nd3,5,6\nd4,7,8\n')
        assert panel.observations.tolist() == [[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]

    def test_lone_carriage_return_ends_a_line_of_a_file(self, tmp_path):
        # csv reads "\r" as an empty line; the row before it is still ragged
        path = tmp_path / "cr.csv"
        path.write_bytes(b"date,A,B\nd1,1,2\nd2,3,4,9,9\n\rd3,5,6\nd4,7,8\n")
        with pytest.raises(PanelFormatError, match="^ragged row 3: expected 3 cells, got 5$"):
            load_panel(path)

    def test_byte_order_mark_file_with_quoted_cell(self, tmp_path):
        # the quote sends the parse back to the start of the file, past the mark again
        path = tmp_path / "bom.csv"
        path.write_text('date,A,B\nd1,1,2\nd2,"3",4\nd3,5,6\n', encoding="utf-8-sig")
        panel = load_panel(path)
        assert panel.labels == ("A", "B")
        assert panel.observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    @pytest.mark.parametrize("body", ["1,2\n3,4\n5,6\n", '1,2\n"3",4\n5,6\n'])
    def test_non_seekable_stream(self, body):
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w", encoding="utf-8") as writer:
            writer.write("A,B\n" + body)
        with os.fdopen(read_end, "r", encoding="utf-8") as reader:
            assert not reader.seekable()
            panel = load_panel(reader)
        assert panel.observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_file_already_read_with_next(self, tmp_path):
        path = tmp_path / "preamble.csv"
        path.write_text("# preamble\nA,B\n1,2\n3,4\n5,6\n")
        with open(path, encoding="utf-8") as handle:
            next(handle)
            panel = load_panel(handle)
        assert panel.observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_header_only_panel_rejected_without_other_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PanelFormatError, match="^need at least 3 data rows, got 0$"):
                panel_from_csv("date,A,B\n")
        assert caught == []

    @pytest.mark.parametrize(
        "lines, row",
        [
            (["A,{long}", "1,2", "3,4", "5,6"], 1),
            (["date,A,B", "d1,1,2", "", "d2,3,{long}", "d3,5,6"], 4),
        ],
        ids=["header", "body"],
    )
    def test_cell_over_the_csv_field_limit_names_its_row(self, lines, row):
        long = "4" * (csv.field_size_limit() + 1)
        text = "\n".join(lines).format(long=long) + "\n"
        with pytest.raises(PanelFormatError, match=f"^unreadable row {row}: field larger than"):
            panel_from_csv(text)

    @pytest.mark.parametrize("limit", [None, 8], ids=["default-limit", "lowered-limit"])
    def test_finite_cell_over_the_csv_field_limit_names_its_row(self, tmp_path, limit):
        # np.loadtxt reads such a cell to 0.0; csv does not split its row
        default = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            path = tmp_path / "long.csv"
            path.write_text(f"A,B\n1,2\n3,{'0' * (csv.field_size_limit() + 1)}\n5,6\n")
            with pytest.raises(PanelFormatError, match="^unreadable row 3: field larger than"):
                load_panel(path)
        finally:
            csv.field_size_limit(default)

    def test_plain_body_parsed_without_the_exact_loop(self, monkeypatch):
        refuse_exact_loop(monkeypatch)
        panel = panel_from_csv("date,A,B\nd1,1,2\r\n\nd2, 3 ,4e0\nd3,-5.,+.6\n")
        assert panel.observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [-5.0, 0.6]]

    @pytest.mark.parametrize(
        "newline, encoding", [("\n", "utf-8"), ("\r\n", "utf-8"), ("\n", "utf-8-sig")],
        ids=["lf", "crlf", "bom"],
    )
    def test_plain_file_read_by_name_without_the_exact_loop(
        self, monkeypatch, tmp_path, newline, encoding
    ):
        refuse_exact_loop(monkeypatch)
        sources = loadtxt_sources(monkeypatch)
        path = tmp_path / "panel.csv"
        text = newline.join(["date,A,B", "d1,1,2", "", "d2, 3 ,4e0", "d3,-5.,+.6", ""])
        path.write_bytes(text.encode(encoding))
        panel = load_panel(path)
        assert panel.labels == ("A", "B")
        assert panel.observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [-5.0, 0.6]]
        assert sources == [os.path.abspath(path)]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_file_named_like_a_compressed_one(self, monkeypatch, tmp_path, suffix):
        # np.loadtxt would open such a name through a decompressor
        refuse_exact_loop(monkeypatch)
        path = tmp_path / f"panel.csv{suffix}"
        path.write_text("date,A,B\nd1,1,2\nd2,3,4\nd3,5,6\n")
        assert load_panel(path).observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo(self, tmp_path):
        path = tmp_path / "panel.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("A,B\n1,2\n3,4\n5,6\n",))
        writer.start()
        try:
            panel = load_panel(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert panel.observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_file_rewritten_after_the_guard_read_it(self, monkeypatch, tmp_path):
        # np.loadtxt would strip the U+001C that the guard never saw
        path = tmp_path / "panel.csv"
        path.write_text("A,B\n1,2\n3,4\n5,6\n")
        guard = gaussrisk.estimation._plain_commas

        def guard_then_rewrite(source):
            commas = guard(source)
            path.write_text("A,B\n1,2\n3,\x1c4\n5,6\n")
            return commas

        monkeypatch.setattr(gaussrisk.estimation, "_plain_commas", guard_then_rewrite)
        with pytest.raises(PanelFormatError, match=r"^non-numeric cell '4' at row 3, column 'B'$"):
            load_panel(path)

    def test_quoted_header_takes_the_exact_loop(self, monkeypatch, tmp_path):
        # csv joins the two physical lines of the header; np.loadtxt would skip one
        sources = loadtxt_sources(monkeypatch)
        path = tmp_path / "panel.csv"
        path.write_text('A,"B\n1,2",C\n1,2,3\n4,5,6\n7,8,9\n')
        panel = load_panel(path)
        assert panel.labels == ("A", "B\n1,2", "C")
        assert panel.observations.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        assert sources == []

    @pytest.mark.parametrize("source", ["file", "stream", "pipe"])
    @pytest.mark.parametrize("row", [3, 3000], ids=["first-block", "past-the-first-block"])
    def test_text_that_is_not_utf8_rejected(self, tmp_path, source, row):
        data = b"date,A,B\n" + b"d,1,2\n" * (row - 2) + b"d,3,\xff4\nd,5,6\n"
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        writer = None
        if source == "pipe":
            read_end, write_end = os.pipe()
            writer = threading.Thread(target=lambda: (os.write(write_end, data), os.close(write_end)))
            writer.start()
            opened = os.fdopen(read_end, encoding="utf-8")
        elif source == "stream":
            opened = open(path, encoding="utf-8")
        else:
            opened = contextlib.nullcontext(path)
        with opened as panel_source:
            with pytest.raises(PanelFormatError, match="^input is not UTF-8 text") as excinfo:
                load_panel(panel_source)
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        else:  # a named row is at or before the bad byte
            named = int(re.search(r"at row (\d+) or later", str(excinfo.value)).group(1))
            assert 1 <= named <= row


# Decimal cells that float() and np.loadtxt both read, and characters on
# which the two parsers (or csv) may disagree.
_PLAIN_CELLS = ["1.5", "-2", "0.25", "1e-3", "+3.", ".5", "7", " 4 ", "-0.0"]
_TRICKY_TEXT = [
    "_", "\u00a0", "\u0663", '"', "#", "\r", "\x0c", "\x1c", "\t", "nan", "inf", "1e999",
    ",", " ", "\n", "\n\n", "\n  \n", "\n\x0c\n", "\r\n",
]


@st.composite
def tricky_panel_texts(draw):
    """A well-formed panel with up to three tricky strings inserted anywhere in its text."""
    n = draw(st.integers(1, 3))
    dated = draw(st.booleans())
    header = (["date"] if dated else []) + [f"B{j}" for j in range(n)]
    cells = st.one_of(
        st.sampled_from(_PLAIN_CELLS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=3, max_size=6))
    lines = [",".join(header)] + [
        ",".join(([f"d{t}"] if dated else []) + row) for t, row in enumerate(rows)
    ]
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    places = draw(st.randoms(use_true_random=False))  # uniform, unlike drawn integers
    for tricky in draw(st.lists(st.sampled_from(_TRICKY_TEXT), max_size=3)):
        at = places.randint(0, len(text))
        text = text[:at] + tricky + text[at:]
    return text


def parse_outcome(parse, source):
    try:
        labels, observations = parse(source)
    except PanelFormatError as exc:
        return type(exc), str(exc)
    return labels, observations.shape, observations.tobytes()


def via_load_panel(source):
    panel = load_panel(source)
    return panel.labels, panel.observations


class TestFastParseMatchesExactLoop:
    @settings(max_examples=500, deadline=None)
    @given(tricky_panel_texts())
    def test_same_outcome(self, text):
        assert parse_outcome(via_load_panel, io.StringIO(text)) == parse_outcome(
            _parse_exact, io.StringIO(text)
        )

    @settings(max_examples=500, deadline=None)
    @given(tricky_panel_texts(), st.sampled_from(["utf-8", "utf-8-sig"]))
    def test_same_outcome_from_a_file(self, text, encoding):
        # A file is read with newline="": "\r" alone ends a line, as it does
        # for the exact loop on a StringIO made with newline="".
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "panel.csv")
            with open(path, "w", encoding=encoding, newline="") as handle:
                handle.write(text)
            assert parse_outcome(via_load_panel, path) == parse_outcome(
                _parse_exact, io.StringIO(text, newline="")
            )


class TestEstimateMoments:
    def test_identical_columns_give_equal_entries(self):
        panel = panel_from_csv("A,B\n1,1\n2,2\n4,4\n")
        est = estimate_moments(panel)
        cov = est.covariance
        assert cov[0, 0] == cov[0, 1] == cov[1, 0] == cov[1, 1]
        assert pair_for_bank(est, "A").rho == 1.0

    def test_negated_column_gives_minus_one_correlation(self):
        panel = panel_from_csv("A,B\n1,-1\n2,-2\n4,-4\n")
        est = estimate_moments(panel)
        assert pair_for_bank(est, "A").rho == -1.0

    def test_unbiased_divisor(self):
        # variance of (0, 2) with divisor T-1 is 2, not 1
        panel = ReturnPanel(("A", "B"), np.array([[0.0, 1.0], [2.0, 1.5], [0.0, 1.0], [2.0, 1.5]]))
        est = estimate_moments(panel)
        assert est.covariance[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_iid_standard_normal_panel(self):
        rng = np.random.default_rng(314159)
        panel = ReturnPanel(("A", "B", "C"), rng.standard_normal((10_000, 3)))
        est = estimate_moments(panel)
        assert np.all(np.abs(np.diag(est.covariance) - 1.0) < 0.05)
        off = est.covariance[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.05)
        assert np.all(np.abs(est.means) < 0.05)

    def test_iid_panel_from_joint_sampler(self):
        # same ground truth, generated by the package's own seeded sampler
        draw = SharedDraw(McConfig(sample_count=10_000, seed=77))
        samples = sample_pair(GaussianPair(0.0, 0.0, 1.0, 1.0, 0.0), draw)
        est = estimate_moments(ReturnPanel(("A", "B"), samples))
        assert np.all(np.abs(np.diag(est.covariance) - 1.0) < 0.05)
        assert abs(est.covariance[0, 1]) < 0.05
        assert np.all(np.abs(est.means) < 0.05)

    def test_zero_variance_column_warns(self):
        panel = panel_from_csv("A,B\n1,7\n2,7\n3,7\n")
        with pytest.warns(DegenerateSeriesWarning, match="'B'"):
            estimate_moments(panel)

    def test_constant_column_is_zero_variance(self):
        # 0.0025 is not a binary fraction: the mean of 80 copies is off by an
        # ulp, so the plain sample moments of the column are rounding noise.
        rng = np.random.default_rng(11)
        obs = np.column_stack([0.02 * rng.standard_normal((80, 2)), np.full(80, 0.0025)])
        assert np.all(np.cov(obs, rowvar=False)[2] != 0.0)
        with pytest.warns(DegenerateSeriesWarning, match="'C'"):
            est = estimate_moments(ReturnPanel(("A", "B", "C"), obs))
        assert np.all(est.covariance[2] == 0.0)
        assert np.all(est.covariance[:, 2] == 0.0)
        with pytest.raises(DegenerateBankError, match="'C'"):
            pair_for_bank(est, "C")

    def test_column_one_ulp_from_constant_keeps_its_variance(self):
        rng = np.random.default_rng(11)
        column = np.full(80, 1.0)
        column[40] = np.nextafter(1.0, 2.0)
        obs = np.column_stack([0.02 * rng.standard_normal((80, 2)), column])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateSeriesWarning)
            est = estimate_moments(ReturnPanel(("A", "B", "C"), obs))
        assert est.covariance[2, 2] > 0.0
        assert pair_for_bank(est, "C").var_i == est.covariance[2, 2]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        obs = rng.standard_normal((200, 3))
        est = estimate_moments(ReturnPanel(("A", "B", "C"), obs))
        shuffled = obs[rng.permutation(200)]
        est2 = estimate_moments(ReturnPanel(("A", "B", "C"), shuffled))
        assert np.allclose(est.covariance, est2.covariance, rtol=0, atol=1e-12)
        assert np.allclose(est.means, est2.means, rtol=0, atol=1e-12)

    def test_constant_shift_moves_only_the_mean(self):
        rng = np.random.default_rng(8)
        obs = rng.standard_normal((500, 2))
        shifted = obs.copy()
        shifted[:, 0] += 2.5
        est = estimate_moments(ReturnPanel(("A", "B"), obs))
        est2 = estimate_moments(ReturnPanel(("A", "B"), shifted))
        assert est2.means[0] == pytest.approx(est.means[0] + 2.5, abs=1e-10)
        assert np.allclose(est.covariance, est2.covariance, rtol=0, atol=1e-10)


def spectrum_matrix(positive: np.ndarray, multiple: float, rng) -> np.ndarray:
    """A symmetric matrix with eigenvalues ``positive`` and ``-multiple * 1e-10 * trace``."""
    total = float(positive.sum()) / (1.0 + multiple * 1e-10)  # the trace of the result
    eigenvalues = np.append(positive, -multiple * 1e-10 * total)
    basis, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    cov = (basis * eigenvalues) @ basis.T
    return 0.5 * (cov + cov.T)


def eigvalsh_message(cov: np.ndarray):
    """The PSD error decided by the smallest eigenvalue alone, or None where it accepts."""
    trace = float(np.trace(cov))
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    if min_eig >= -1e-10 * max(trace, 1e-300):
        return None
    return (
        f"covariance matrix is not positive semidefinite "
        f"(min eigenvalue {min_eig!r}, trace {trace!r})"
    )


class TestReturnPanel:
    OBS = np.arange(12.0).reshape(4, 3)

    @pytest.mark.parametrize(
        "labels, observations, message",
        [
            (("A",), np.zeros(5), "observations must be 2-d, got shape (5,)"),
            (("A", "B"), OBS, "2 labels but 3 observation columns"),
            (("A", "B", "C"), OBS[:2], "need at least 3 rows, got 2"),
            (("A", "", "C"), OBS, "bank labels must be non-empty"),
            (("A", "B", "A"), OBS, "bank labels must be distinct"),
            (
                ("A", "B", "C"), np.where(OBS == 7.0, np.nan, OBS),
                "non-finite observation at row 3, column 'B'",
            ),
        ],
        ids=["not-2d", "label-count", "too-few-rows", "empty-label", "repeated-label", "nan"],
    )
    def test_rejects_a_malformed_panel(self, labels, observations, message):
        with pytest.raises(PanelFormatError, match=f"^{re.escape(message)}$"):
            ReturnPanel(labels, observations)


class TestMomentEstimate:
    def test_rejects_a_shape_mismatch(self):
        with pytest.raises(
            InvalidCovarianceError,
            match=r"^shape mismatch: 2 labels, means \(3,\), covariance \(2, 2\)$",
        ):
            MomentEstimate(("A", "B"), np.zeros(3), np.eye(2), 10)

    def test_rejects_a_negative_diagonal_entry(self):
        with pytest.raises(
            InvalidCovarianceError, match="^covariance matrix has a negative diagonal entry$"
        ):
            MomentEstimate(("A", "B"), np.zeros(2), np.diag([1.0, -1.0]), 10)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(Exception, match="symmetric"):
            MomentEstimate(("A", "B"), np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 10)

    def test_rejects_non_psd(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(Exception, match="positive semidefinite"):
            MomentEstimate(("A", "B"), np.zeros(2), cov, 10)

    @pytest.mark.parametrize("where", ["mean", "variance", "covariance"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_without_a_warning(self, where, value):
        means = np.zeros(3)
        cov = np.eye(3)
        if where == "mean":
            means[1] = value
        elif where == "variance":
            cov[1, 1] = value
        else:
            cov[0, 2] = cov[2, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCovarianceError, match="non-finite"):
                MomentEstimate(("A", "B", "C"), means, cov, 10)

    @pytest.mark.parametrize("multiple, accepted", [(2.0, False), (0.5, True)])
    def test_smallest_eigenvalue_against_the_slack(self, multiple, accepted):
        # eigenvalues 1..4 and one at -multiple * slack, slack = 1e-10 * trace
        positive = np.array([1.0, 2.0, 3.0, 4.0])
        cov = spectrum_matrix(positive, multiple, np.random.default_rng(5))
        if accepted:
            MomentEstimate(tuple("ABCDE"), np.zeros(5), cov, 10)
        else:
            with pytest.raises(InvalidCovarianceError) as excinfo:
                MomentEstimate(tuple("ABCDE"), np.zeros(5), cov, 10)
            assert excinfo.value.args == (eigvalsh_message(cov),)

    @settings(max_examples=300, deadline=None)
    @given(
        positive=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=7),
        multiple=st.floats(-5.0, 5.0).filter(lambda k: abs(k - 1.0) >= 1e-3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_psd_decision_equals_the_eigenvalue_decision(self, positive, multiple, seed):
        cov = spectrum_matrix(np.array(positive), multiple, np.random.default_rng(seed))
        assume(np.all(np.diag(cov) >= 0.0))
        labels = tuple(f"B{i}" for i in range(len(cov)))
        expected = eigvalsh_message(cov)
        try:
            MomentEstimate(labels, np.zeros(len(cov)), cov, 10)
        except InvalidCovarianceError as exc:
            assert exc.args == (expected,)
        else:
            assert expected is None

    def test_index_of_each_label(self):
        est = MomentEstimate(("A", "B", "C"), np.zeros(3), np.eye(3), 10)
        assert [est.index_of(label) for label in "ABC"] == [0, 1, 2]
        with pytest.raises(UnknownBankError):
            est.index_of("D")

    def test_repeated_labels_rejected(self):
        with pytest.raises(InvalidCovarianceError, match="^bank labels must be distinct$"):
            MomentEstimate(("A", "B", "A"), np.zeros(3), np.eye(3), 10)

    def test_overflowing_trace_rejected_without_a_warning(self):
        # eigenvalues -5e307 and inf: an inf PSD slack would accept the matrix
        cov = np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCovarianceError, match="^covariance matrix trace overflows to inf$"):
                MomentEstimate(("A", "B"), np.zeros(2), cov, 10)

    def test_caller_arrays_left_writeable(self):
        means = np.array([0.1, 0.2])
        cov = np.array([[1.0, 0.5], [0.5, 2.0]])
        est = MomentEstimate(("A", "B"), means, cov, 10)
        assert means.flags.writeable and cov.flags.writeable
        means[0] = cov[0, 0] = 99.0
        assert est.means[0] == 0.1 and est.covariance[0, 0] == 1.0
        assert not est.means.flags.writeable and not est.covariance.flags.writeable


class TestPairForBank:
    def test_two_banks_reduce_to_off_diagonal(self):
        est = MomentEstimate(
            ("A", "B"), np.array([0.1, 0.2]),
            np.array([[1.0, 0.5], [0.5, 2.0]]), 100,
        )
        pair = pair_for_bank(est, "A")
        assert (pair.mu_i, pair.mu_a) == (0.1, 0.2)
        assert (pair.var_i, pair.var_a, pair.cov_ia) == (1.0, 2.0, 0.5)
        # aggregate system variance equals the full quadratic form
        assert pair.var_s == pytest.approx(float(est.covariance.sum()), rel=1e-15)

    def test_three_banks_identity_covariance(self):
        est = MomentEstimate(("A", "B", "C"), np.zeros(3), np.eye(3), 100)
        pair = pair_for_bank(est, "A")
        assert (pair.var_i, pair.var_a, pair.cov_ia) == (1.0, 2.0, 0.0)

    def test_three_banks_all_ones_covariance(self):
        est = MomentEstimate(("A", "B", "C"), np.zeros(3), np.ones((3, 3)), 100)
        pair = pair_for_bank(est, "B")
        assert (pair.var_i, pair.var_a, pair.cov_ia) == (1.0, 4.0, 2.0)

    def test_a_single_bank_has_no_rest_of_system(self):
        est = MomentEstimate(("A",), np.zeros(1), np.eye(1), 100)
        with pytest.raises(
            DegenerateModelError,
            match="^panel has a single bank: there is no rest-of-system to aggregate$",
        ):
            pair_for_bank(est, "A")

    def test_unknown_label(self):
        est = MomentEstimate(("A", "B"), np.zeros(2), np.eye(2), 100)
        with pytest.raises(UnknownBankError):
            pair_for_bank(est, "Z")

    def test_overflowing_total_is_not_the_error(self):
        # 1'.cov.1 overflows to inf; the pair's own magnitudes then say why it fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = MomentEstimate(("A", "B"), np.zeros(2), np.full((2, 2), 8e307), 10)
        with pytest.raises(DomainError, match="^model magnitudes overflow double precision$"):
            pair_for_bank(est, "A")

    def test_overflowing_total_falls_back_to_the_block_sum(self):
        est = MomentEstimate(("A", "B", "C"), np.zeros(3), np.diag([8e307, 8e307, 1.0]), 10)
        assert pair_for_bank(est, "C").var_a == 1.6e308
        # 1'.cov.1 is 1.62e308, but numpy's pairwise sum overflows on the way
        loadings = np.array([1.0, -0.2, 1.0, 0.0])
        cov = 5e307 * np.outer(loadings, loadings)
        cov[3, 3] = 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = MomentEstimate(("B", "C", "D", "A"), np.zeros(4), cov, 10)
        pair = pair_for_bank(est, "A")
        assert (pair.var_i, pair.var_a, pair.cov_ia) == (1e-10, 1.62e308, 0.0)

    def test_degenerate_bank(self):
        cov = np.array([[0.0, 0.0], [0.0, 1.0]])
        est = MomentEstimate(("A", "B"), np.zeros(2), cov, 100)
        with pytest.raises(DegenerateBankError):
            pair_for_bank(est, "A")

    def test_system_variance_independent_of_singled_out_bank(self):
        rng = np.random.default_rng(99)
        obs = rng.standard_normal((400, 4)) @ rng.uniform(0.2, 1.0, size=(4, 4))
        est = estimate_moments(ReturnPanel(("A", "B", "C", "D"), obs))
        quadratic_form = float(est.covariance.sum())
        for bank in est.labels:
            var_s = pair_for_bank(est, bank).var_s
            assert var_s == pytest.approx(quadratic_form, abs=1e-10 * max(1.0, quadratic_form))

    def test_contributions_sum_to_system_var(self):
        rng = np.random.default_rng(123)
        root = rng.uniform(-0.4, 0.8, size=(3, 3)) + np.eye(3)
        obs = rng.standard_normal((600, 3)) @ root.T + rng.uniform(-0.1, 0.1, 3)
        est = estimate_moments(ReturnPanel(("A", "B", "C"), obs))
        params = RiskParams(0.99)
        total = sum(
            full_report(pair_for_bank(est, bank), params).var_contribution for bank in est.labels
        )
        mu_s = float(est.means.sum())
        var_s = float(est.covariance.sum())
        assert abs(total - normal_var(mu_s, var_s, params)) < 1e-9


def oracle_pair(est: MomentEstimate, i: int) -> dict:
    """The pair's moments as exactly rounded sums of the explicit entries."""
    others = [j for j in range(len(est.labels)) if j != i]
    cov = est.covariance
    return {
        "mu_i": float(est.means[i]),
        "mu_a": math.fsum(est.means[j] for j in others),
        "var_i": float(cov[i, i]),
        "var_a": math.fsum(cov[j, k] for j in others for k in others),
        "cov_ia": math.fsum(cov[i, j] for j in others),
    }


def assert_matches_oracle(pair: GaussianPair, want: dict) -> None:
    for field, expected in want.items():
        got = getattr(pair, field)
        assert abs(got - expected) <= 1e-12 * abs(expected), f"{field}: {got!r} vs {expected!r}"


def scaled_estimate(corr: np.ndarray, sds: np.ndarray, mean_z: np.ndarray) -> MomentEstimate:
    cov = corr * np.outer(sds, sds)
    labels = tuple(f"B{j}" for j in range(len(sds)))
    return MomentEstimate(labels, mean_z * sds, 0.5 * (cov + cov.T), 100)


@st.composite
def positive_moment_estimates(draw):
    """PSD covariances with nonnegative correlations and sds over 1e-6..1e6.

    Every sum over the matrix's entries is then free of sign cancellation, so
    an exactly rounded oracle pins each pair field to a few ulps; the one
    cancellation left is the one pair_for_bank's own rewrite introduces.
    """
    n = draw(st.integers(2, 12))
    factors = draw(st.integers(1, 3))
    loadings = draw(st.lists(st.floats(0.05, 1.0), min_size=n * factors, max_size=n * factors))
    idiosyncratic = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    log_sds = draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n))
    mean_z = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    a = np.array(loadings).reshape(n, factors)
    gram = a @ a.T + np.diag(idiosyncratic)
    scale = np.sqrt(np.diag(gram))
    return scaled_estimate(gram / np.outer(scale, scale), 10.0 ** np.array(log_sds), np.array(mean_z))


class TestPairForBankAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(positive_moment_estimates())
    def test_every_field_matches_exact_sums(self, est):
        for i, bank in enumerate(est.labels):
            assert_matches_oracle(pair_for_bank(est, bank), oracle_pair(est, i))

    # The first bank's sd is `ratio` times the others'.  From 1e2 up, its
    # cancellation ratio passes the limit and var_a comes from the other
    # banks' block; from 1e4 up, 1'.cov.1 - 2 cov_ia - var_i alone misses the
    # exact var_a by more than 1e-12 (by 6 % at 1e8, by a factor of 1e7 at 1e12).
    @pytest.mark.parametrize(
        "ratio, guarded", [(1.0, False), (1e1, False), (1e2, True), (1e4, True), (1e8, True), (1e12, True)]
    )
    def test_dominant_bank(self, ratio, guarded):
        corr = np.array(
            [
                [1.00, 0.45, 0.30, 0.20],
                [0.45, 1.00, 0.35, 0.25],
                [0.30, 0.35, 1.00, 0.40],
                [0.20, 0.25, 0.40, 1.00],
            ]
        )
        sds = np.array([ratio, 1.0, 1.5, 2.0]) * 0.01
        est = scaled_estimate(corr, sds, np.array([0.1, -0.05, 0.15, 0.02]))
        want = oracle_pair(est, 0)
        cov = est.covariance
        total = float(cov.sum())
        cancellation = (abs(total) + 2.0 * abs(want["cov_ia"]) + want["var_i"]) / want["var_a"]
        assert (cancellation > _CANCELLATION_LIMIT) == guarded
        pair = pair_for_bank(est, "B0")
        assert pair.var_a > 0.0
        assert_matches_oracle(pair, want)
        if ratio >= 1e4:
            difference = total - 2.0 * want["cov_ia"] - want["var_i"]
            assert abs(difference - want["var_a"]) > 1e-12 * want["var_a"]
