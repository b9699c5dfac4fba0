import contextlib
import csv
import io
import math
import os
import re
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gaussrisk.errors import (
    DegenerateBankError,
    DegenerateModelError,
    DomainError,
    InvalidCovarianceError,
    PanelFormatError,
    UnknownBankError,
)
import gaussrisk.estimation
from gaussrisk.estimation import (
    _BLOCK_BYTES,
    _SPLIT_ROWS,
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

    def test_peak_memory_of_a_tall_file_is_the_panel(self, tmp_path):
        # np.loadtxt allocates the rows that the comma count allows, once: a
        # buffer grown as it reads would outrun the panel by a sixth
        rows, banks = 40_000, 8
        cells = np.random.default_rng(1).normal(0.0, 0.02, (rows, banks))
        path = tmp_path / "tall.csv"
        np.savetxt(path, cells, fmt="%.8f", delimiter=",",
                   header=",".join(f"B{j}" for j in range(banks)), comments="")
        load_panel(path)  # lazy set-up outside the count
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            panel = load_panel(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert panel.observations.shape == (rows, banks)
        assert peak <= 8 * rows * banks + 128 * 1024

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


@st.composite
def plain_panel_texts(draw):
    """A plain panel with blank lines among its rows, either line ending and maybe no last one."""
    n = draw(st.integers(1, 3))
    dated = draw(st.booleans())
    header = (["date"] if dated else []) + [f"B{j}" for j in range(n)]
    rows = draw(st.lists(
        st.lists(st.sampled_from(_PLAIN_CELLS), min_size=n, max_size=n), min_size=1, max_size=8
    ))
    body = [",".join((["d"] if dated else []) + row) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        body.insert(draw(st.integers(0, len(body))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([",".join(header)] + body) + draw(st.sampled_from([newline, ""]))


class TestRowBound:
    """np.loadtxt reads at most as many rows as the body has commas for, plus one."""

    @settings(max_examples=300, deadline=None)
    @given(plain_panel_texts())
    @example("A,B\n\n1,2\n\n\n3,4\n5,6\n\n")  # leading, consecutive and trailing blank lines
    @example("date,A\nd,1\nd,2\nd,3")  # no final newline
    @example("A,B\r\n1,2\r\n\r\n3,4\r\n5,6\r\n")
    @example("A\n1\n\n2\n3\n4\n")  # one column and no date: no commas, no bound
    @example("A,B\n1,2\n3,4\n5,6\n7\n")  # a short row past the rows the commas allow
    def test_same_outcome_as_the_exact_loop_and_no_warning(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "panel.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes = [parse_outcome(via_load_panel, source) for source in (io.StringIO(text), path)]
        assert caught == []
        expected = parse_outcome(_parse_exact, io.StringIO(text, newline=""))
        assert outcomes == [expected, expected]

    @pytest.mark.parametrize("date", ["", "d,"])
    def test_extra_cell_then_short_last_row_is_ragged(self, tmp_path, date):
        # the extra cell's comma makes up for the short row's missing one
        header, width = ("date,A,B", 3) if date else ("A,B", 2)
        path = tmp_path / "panel.csv"
        path.write_text(f"{header}\n{date}1,2\n{date}3,4,5\n{date}6,7\n{date}8\n")
        with pytest.raises(
            PanelFormatError, match=f"^ragged row 3: expected {width} cells, got {width + 1}$"
        ):
            load_panel(path)


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

    def test_zero_variance_column_is_named_where_it_is_singled_out(self):
        # no warning at estimation (the suite turns one into an error): the
        # bank is named by the typed error of the one call that needs its variance
        est = estimate_moments(panel_from_csv("A,B\n1,7\n2,7\n3,7\n"))
        assert est.covariance[1, 1] == 0.0
        with pytest.raises(DegenerateBankError, match="^bank 'B' has zero sample variance$"):
            pair_for_bank(est, "B")

    def test_constant_column_is_zero_variance(self):
        # 0.0025 is not a binary fraction: the mean of 80 copies is off by an
        # ulp, so the plain sample moments of the column are rounding noise.
        rng = np.random.default_rng(11)
        obs = np.column_stack([0.02 * rng.standard_normal((80, 2)), np.full(80, 0.0025)])
        assert np.all(np.cov(obs, rowvar=False)[2] != 0.0)
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
        est = estimate_moments(ReturnPanel(("A", "B", "C"), obs))
        assert est.covariance[2, 2] > 0.0
        assert pair_for_bank(est, "C").var_i == est.covariance[2, 2]

    def test_overflowing_mean_is_a_typed_error_and_no_numpy_warning(self):
        # A's sum passes the largest double; the suite turns a numpy warning into an error
        panel = ReturnPanel(("A", "B"), [[5e307, 1.0], [5e307, 2.0], [5e307, 3.0], [5e307, 4.0]])
        with pytest.raises(
            InvalidCovarianceError, match="^non-finite entry in the means or the covariance matrix$"
        ):
            estimate_moments(panel)

    def test_inf_minus_inf_across_blocks_is_a_typed_error_and_no_numpy_warning(self):
        # inf and -inf products from different blocks of rows add up to nan
        signs = np.random.default_rng(5).choice([-1.0, 1.0], size=(2 * _SPLIT_ROWS + 3, 3))
        with pytest.raises(
            InvalidCovarianceError, match="^non-finite entry in the means or the covariance matrix$"
        ):
            estimate_moments(ReturnPanel(("A", "B", "C"), 1e160 * signs))

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

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(3, 40),
        banks=st.integers(1, 8),
        scales=st.lists(st.integers(-150, 150), min_size=8, max_size=8),
        constant=st.none() | st.integers(0, 7),
        copied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=3, banks=8, scales=[0] * 8, constant=None, copied=False, seed=0)
    @example(rows=3, banks=3, scales=[150, -150, 0] + [0] * 5, constant=2, copied=False, seed=1)
    @example(rows=5, banks=4, scales=[-150, 150] * 4, constant=None, copied=True, seed=2)
    def test_every_estimate_passes_the_gate_it_skips(
        self, rows, banks, scales, constant, copied, seed
    ):
        # estimate_moments checks only finiteness and the trace of its sample
        # covariance; the full gate, which a caller-built estimate of the same
        # numbers passes through, must accept it: the skip lets nothing through
        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((rows, 1))
        obs = factor * rng.standard_normal(banks) + rng.standard_normal((rows, banks))
        obs += rng.standard_normal(banks)  # locations of the size of the spread
        if copied and banks > 1:  # an exact linear dependence, whatever the row count
            obs[:, -1] = -3.0 * obs[:, 0]
        if constant is not None and constant < banks:
            obs[:, constant] = 0.3
        obs *= 10.0 ** np.array(scales[:banks])
        est = estimate_moments(ReturnPanel(tuple(f"B{i}" for i in range(banks)), obs))
        cov = est.covariance
        assert np.array_equal(cov, cov.T)
        MomentEstimate(est.labels, est.means, est.covariance, est.sample_size)

    def test_peak_memory_is_one_centred_copy_and_the_covariance(self):
        # np.cov held a centred copy of the panel and the covariance.  A panel
        # of one block holds the same, one split into blocks less; no shape may
        # cost more, and the estimate adds no n x n array, which short, wide
        # panels would show
        shapes = [(500, 400), (_SPLIT_ROWS + 1, 300), (40_000, 8), (50, 400), (10, 1000)]
        for rows, banks in shapes:
            peak = estimate_peak(one_factor_panel(rows, banks))
            assert peak <= 1.05 * 8 * (rows * banks + banks * banks), (rows, banks)

    def test_peak_memory_of_a_tall_panel_is_a_block_not_a_copy(self):
        # a panel split into blocks holds one block of 16 KiB of centred rows,
        # and numpy's buffer for it, not all of them
        assert estimate_peak(one_factor_panel(40_000, 8)) <= 64 * 1024


BANKS = 5
ONE_BLOCK_ROWS = [3, _SPLIT_ROWS - 1, _SPLIT_ROWS, _SPLIT_ROWS + 1, _SPLIT_ROWS + 2 * BANKS - 1]
SPLIT_ROWS = [_SPLIT_ROWS + 2 * BANKS, 2 * _SPLIT_ROWS + 3]


def split_rows_ending_in_one(banks: int) -> int:
    """The fewest rows that split a panel of ``banks`` into blocks, the last of one row."""
    block = max(_BLOCK_BYTES // (8 * banks), banks)
    return -(-(_SPLIT_ROWS + 2 * banks - 1) // block) * block + 1


# nothing re-imposes the symmetry: numpy's X'X of each block must have it,
# also where three rows are fewer than the banks
SYMMETRY_CASES = [
    pytest.param(rows, BANKS, id=str(rows)) for rows in ONE_BLOCK_ROWS + SPLIT_ROWS
] + [
    pytest.param(rows, banks, id=f"{rows}x{banks}")
    for banks in (1, 2, 64, 65, 400)
    for rows in (3, 500, split_rows_ending_in_one(banks))
]


class TestCovarianceBlocks:
    """Row counts on either side of where estimate_moments splits a panel into blocks."""

    @pytest.mark.parametrize("rows, banks", SYMMETRY_CASES)
    def test_exactly_symmetric(self, rows, banks):
        cov = estimate_moments(one_factor_panel(rows, banks)).covariance
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("rows", ONE_BLOCK_ROWS)
    def test_one_block_is_np_cov_to_the_bit(self, rows):
        panel = one_factor_panel(rows)
        expected = np.cov(panel.observations, rowvar=False)
        assert np.array_equal(estimate_moments(panel).covariance, expected)

    @pytest.mark.parametrize("rows", SPLIT_ROWS)
    def test_blocks_sum_to_the_one_shot_product(self, rows):
        assert_blocks_sum_to_the_one_shot_product(one_factor_panel(rows))

    def test_blocks_of_n_rows_sum_to_the_one_shot_product(self):
        # 64 banks: 16 KiB of centred rows would be fewer rows than banks
        assert_blocks_sum_to_the_one_shot_product(one_factor_panel(_SPLIT_ROWS + 2 * 64 + 5, 64))

    def test_constant_column_split_into_blocks_is_zeroed(self):
        panel = one_factor_panel(SPLIT_ROWS[-1])
        obs = panel.observations.copy()
        obs[:, 2] = 0.0025  # not a binary fraction: its plain sample moments are noise
        assert np.all(np.cov(obs, rowvar=False)[2] != 0.0)
        cov = estimate_moments(ReturnPanel(panel.labels, obs)).covariance
        assert np.all(cov[2] == 0.0) and np.all(cov[:, 2] == 0.0)
        assert np.all(np.delete(np.delete(cov, 2, 0), 2, 1) != 0.0)


def one_factor_panel(rows: int, banks: int = BANKS) -> ReturnPanel:
    """A correlated panel with locations far from zero."""
    rng = np.random.default_rng([rows, banks])
    obs = rng.standard_normal((rows, 1)) + rng.standard_normal((rows, banks))
    obs += 100.0 * rng.standard_normal(banks)
    return ReturnPanel(tuple(f"B{i}" for i in range(banks)), obs)


def assert_blocks_sum_to_the_one_shot_product(panel: ReturnPanel) -> None:
    centred = panel.observations - panel.observations.mean(axis=0)
    expected = np.dot(centred.T, centred) / (panel.sample_size - 1)
    cov = estimate_moments(panel).covariance
    assert np.array_equal(cov, cov.T)
    assert np.abs(cov - expected).max() <= 1e-13 * np.diag(expected).max()


def estimate_peak(panel: ReturnPanel) -> int:
    """Bytes that ``estimate_moments(panel)`` holds at its peak, by tracemalloc."""
    estimate_moments(panel)  # lazy set-up outside the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        estimate_moments(panel)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


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
            ((), np.zeros((4, 0)), "panel has no banks"),
            ((), np.zeros((_SPLIT_ROWS, 0)), "panel has no banks"),
            (
                ("A", "B"), [[1.0, "x"], [2.0, 3.0], [4.0, 5.0]],
                "observations must be numbers in a rectangular array",
            ),
            (
                ("A", "B"), [[1.0, 2.0], [3.0], [4.0, 5.0]],
                "observations must be numbers in a rectangular array",
            ),
        ],
        ids=[
            "not-2d", "label-count", "too-few-rows", "empty-label", "repeated-label", "nan",
            "no-banks", "no-banks-tall", "non-numeric-cell", "ragged",
        ],
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

    @pytest.mark.parametrize(
        "labels, means, covariance, message",
        [
            ((), [], np.zeros((0, 0)), "estimate has no banks"),
            (
                ("A", "B"), [0.0, "x"], np.eye(2),
                "means must be numbers in a rectangular array",
            ),
            (
                ("A", "B"), np.zeros(2), [[1.0, 0.0], [0.0]],
                "covariance must be numbers in a rectangular array",
            ),
        ],
        ids=["no-banks", "non-numeric-mean", "ragged-covariance"],
    )
    def test_rejects_an_empty_or_unreadable_estimate(self, labels, means, covariance, message):
        with pytest.raises(InvalidCovarianceError, match=f"^{re.escape(message)}$"):
            MomentEstimate(labels, means, covariance, 10)

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
        multiple=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # the smallest eigenvalue is a hair below -slack, which a Cholesky of
    # cov + slack * I had accepted
    @example(
        positive=[941.1240916274793, 569.004986088389, 36.38712138099605, 92.78769084832155,
                  960.1044305430958],
        multiple=1.0000000757085228,
        seed=8424,
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


def concatenated_pair(est: MomentEstimate, i: int) -> GaussianPair:
    """Bank ``i``'s pair from one ``np.concatenate`` sum per bank, as pair_for_bank once built it."""
    means, cov = est.means, est.covariance
    var_i = float(cov[i, i])
    mu_a = float(np.concatenate((means[:i], means[i + 1:])).sum())
    cov_ia = float(np.concatenate((cov[i, :i], cov[i, i + 1:])).sum())
    var_a = est._total - 2.0 * cov_ia - var_i
    if not math.isfinite(var_a) or (
        abs(est._total) + 2.0 * abs(cov_ia) + var_i > _CANCELLATION_LIMIT * var_a
    ):
        var_a = float(np.delete(np.delete(cov, i, axis=0), i, axis=1).sum())
    return GaussianPair(mu_i=float(means[i]), mu_a=mu_a, var_i=var_i, var_a=var_a, cov_ia=cov_ia)


def assert_pairs_bit_identical(est: MomentEstimate) -> None:
    for i, bank in enumerate(est.labels):
        pair = pair_for_bank(est, bank)
        assert pair == concatenated_pair(est, i), bank  # all five fields, by ==
        assert all(type(value) is float for value in (pair.mu_i, pair.mu_a, pair.var_i,
                                                      pair.var_a, pair.cov_ia))


class TestLeaveOneOutSums:
    """pair_for_bank's sums over all banks but one, computed for every bank at once.

    Each must be the double numpy's pairwise sum gives that bank's other n - 1
    entries, the sum of a ``np.concatenate`` of the two sides.  Widths of 128
    and 129 put the n - 1 kept entries on either side of numpy's 128-entry
    pairwise block; from 129 banks on, the covariance rows are summed in more
    than one block.
    """

    @pytest.mark.parametrize("banks", [2, 3, 8, 9, 128, 129, 400, 1000])
    def test_seeded_panel(self, banks):
        rng = np.random.default_rng(banks)
        scales = np.exp(rng.uniform(-4.0, 4.0, banks))
        obs = (rng.standard_normal((60, 1)) + rng.standard_normal((60, banks))) * scales
        obs += scales * rng.standard_normal(banks)
        est = estimate_moments(ReturnPanel(tuple(f"B{i}" for i in range(banks)), obs))
        assert_pairs_bit_identical(est)

    def test_estimate_is_complete_when_built(self):
        rng = np.random.default_rng(5)
        banks = 1000
        obs = rng.standard_normal((60, 1)) + rng.standard_normal((60, banks))
        labels = tuple(f"B{i}" for i in range(banks))
        estimated = estimate_moments(ReturnPanel(labels, obs))
        built = MomentEstimate(labels, estimated.means, estimated.covariance, 60)
        for est in (estimated, built):
            before = dict(vars(est))
            for i in rng.permutation(banks):  # out of order, across every block of rows
                assert pair_for_bank(est, labels[i]) == concatenated_pair(est, i)
            assert vars(est) == before  # the same attributes, each the same object

    def test_caller_built_estimate(self):
        rng = np.random.default_rng(11)
        banks = 257
        root = rng.standard_normal((banks, banks)) * np.exp(rng.uniform(-3.0, 3.0, banks))
        cov = root.T @ root / banks
        labels = tuple(f"B{i}" for i in range(banks))
        est = MomentEstimate(labels, rng.standard_normal(banks), 0.5 * (cov + cov.T), 100)
        assert_pairs_bit_identical(est)

    def test_dominant_bank_falls_back_to_the_block_sum(self):
        corr = np.array([[1.0, 0.45, 0.3], [0.45, 1.0, 0.35], [0.3, 0.35, 1.0]])
        est = scaled_estimate(corr, np.array([1e8, 1.0, 1.5]), np.array([0.1, -0.05, 0.15]))
        cov_ia = float(est.covariance[0, 1:].sum())
        var_a = est._total - 2.0 * cov_ia - float(est.covariance[0, 0])
        assert abs(est._total) > _CANCELLATION_LIMIT * var_a  # the first bank takes the fallback
        assert_pairs_bit_identical(est)

    def test_overflowing_total_falls_back_to_the_block_sum(self):
        loadings = np.array([1.0, -0.2, 1.0, 0.0])
        cov = 5e307 * np.outer(loadings, loadings)
        cov[3, 3] = 1e-10
        est = MomentEstimate(("B", "C", "D", "A"), np.zeros(4), cov, 10)
        assert est._total == math.inf  # every bank takes the fallback
        for i, bank in ((0, "B"), (2, "D"), (3, "A")):
            assert pair_for_bank(est, bank) == concatenated_pair(est, i)
        # C's block sum overflows too: the pair's error, with no numpy warning
        with pytest.raises(DomainError, match="^var_a must be a finite number, got inf$"):
            pair_for_bank(est, "C")

    def test_an_overflowing_sum_is_the_pair_error_without_a_warning(self):
        # E's other means add up past the largest double.  Every bank's sums are
        # taken at once, with no numpy warning, which could name another bank's
        est = MomentEstimate(tuple("ABCDE"), np.array([5e307] * 4 + [0.1]), np.eye(5), 10)
        with pytest.raises(DomainError, match="^mu_a must be a finite number, got inf$"):
            pair_for_bank(est, "E")
