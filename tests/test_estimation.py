import csv
import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussrisk.errors import (
    DegenerateBankError,
    DegenerateSeriesWarning,
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
from gaussrisk.mc import McConfig, sample_pair
from gaussrisk.measures import GaussianPair, var_contribution
from gaussrisk.normal import RiskParams, var_normal


def panel_from_csv(text: str) -> ReturnPanel:
    return load_panel(io.StringIO(text))


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

    def test_plain_body_parsed_without_the_exact_loop(self, monkeypatch):
        def refuse(source):
            raise AssertionError("plain body sent to the exact loop")

        monkeypatch.setattr(gaussrisk.estimation, "_parse_exact", refuse)
        panel = panel_from_csv("date,A,B\nd1,1,2\r\n\nd2, 3 ,4e0\nd3,-5.,+.6\n")
        assert panel.observations.tolist() == [[1.0, 2.0], [3.0, 4.0], [-5.0, 0.6]]


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


def parse_outcome(parse, text: str):
    try:
        labels, observations = parse(io.StringIO(text))
    except PanelFormatError as exc:
        return type(exc), str(exc)
    return labels, observations.shape, observations.tobytes()


class TestFastParseMatchesExactLoop:
    @settings(max_examples=500, deadline=None)
    @given(tricky_panel_texts())
    def test_same_outcome(self, text):
        def via_load_panel(stream):
            panel = load_panel(stream)
            return panel.labels, panel.observations

        assert parse_outcome(via_load_panel, text) == parse_outcome(_parse_exact, text)


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
        samples = sample_pair(
            GaussianPair(0.0, 0.0, 1.0, 1.0, 0.0), McConfig(sample_count=10_000, seed=77)
        )
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


class TestMomentEstimate:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(Exception, match="symmetric"):
            MomentEstimate(("A", "B"), np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 10)

    def test_rejects_non_psd(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(Exception, match="positive semidefinite"):
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

    def test_unknown_label(self):
        est = MomentEstimate(("A", "B"), np.zeros(2), np.eye(2), 100)
        with pytest.raises(UnknownBankError):
            pair_for_bank(est, "Z")

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
        total = sum(var_contribution(pair_for_bank(est, bank), params) for bank in est.labels)
        mu_s = float(est.means.sum())
        var_s = float(est.covariance.sum())
        assert abs(total - var_normal(mu_s, var_s, params)) < 1e-9


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
