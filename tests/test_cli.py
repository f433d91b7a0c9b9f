import csv
import io
import json

import numpy as np
import pytest

from weylgrowth import LevelTooLargeError, build_catalog, cli, enumerate_levels, golden, weyl
from weylgrowth.cli import main

from conftest import _read_checkpoint, _rewrite_checkpoint


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def decode_csv_coeffs(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["index", "coefficient"]
    return [int(value) for key, value in rows[1:] if key.isdigit()]


# ------------------------------------------------------------------- growth

def test_growth_text(capsys):
    code, out = run(capsys, ["growth", "--algebra", "A3", "--order", "99"])
    assert code == 0
    assert "coeffs: 1 3 5 6 5 3 1" in out
    assert "complete: True" in out


def test_growth_json_and_csv_decode_identically(capsys):
    code, js = run(capsys, ["growth", "--algebra", "A3", "--order", "99", "--output", "json"])
    assert code == 0
    payload = json.loads(js)
    assert payload["coeffs"] == [1, 3, 5, 6, 5, 3, 1]
    assert payload["complete"] is True
    code, cs = run(capsys, ["growth", "--algebra", "A3", "--order", "99", "--output", "csv"])
    assert code == 0
    assert decode_csv_coeffs(cs) == payload["coeffs"]


def test_growth_order_zero(capsys):
    code, out = run(capsys, ["growth", "--algebra", "HA3", "--order", "0", "--output", "json"])
    assert code == 0
    assert json.loads(out)["coeffs"] == [1]


def test_growth_repeated_runs_byte_identical(capsys):
    args = ["growth", "--algebra", "HA2", "--order", "8", "--output", "json"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    assert first == second


def test_growth_workers_agree(capsys):
    _, one = run(capsys, ["growth", "--algebra", "HA2", "--order", "9", "--output", "json"])
    _, four = run(capsys, ["growth", "--algebra", "HA2", "--order", "9", "--workers", "4", "--output", "json"])
    assert one == four


def test_growth_debug_dedup_flag(capsys):
    _, plain = run(capsys, ["growth", "--algebra", "HA2", "--order", "8", "--output", "json"])
    _, debug = run(capsys, ["growth", "--algebra", "HA2", "--order", "8", "--debug-full-dedup", "--output", "json"])
    assert plain == debug


def test_growth_debug_dedup_over_the_memory_budget_exits_2(capsys, monkeypatch):
    # The full-history check holds every level whole; past the memory
    # budget it stops with LevelTooLargeError, which is not an internal error.
    monkeypatch.setattr(weyl, "_memory_budget", lambda: 64)
    code = main(["growth", "--algebra", "HA2", "--order", "6", "--debug-full-dedup"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: level ")
    assert captured.err.rstrip().endswith("more than the budget of 64 bytes")


def test_full_history_check_charges_the_oracle_states_to_the_budget(capsys, monkeypatch):
    # HA2 counts its quotient by affine A2, the orbit of lambda = (1, 0, 0,
    # 0).  Its levels 0..10 hold 69 rows of 4 coordinates, 2,208 bytes,
    # inside 16,384 bytes; the orbit oracle's 68 states of levels 1..10,
    # charged at _ORACLE_STATE_BYTES each, take the full-history check of
    # that walk past it at level 10.  The check of W_J(t), affine A2,
    # charges at most 35 oracle states, 10,080 bytes, to each walk over its
    # chain of nodes.
    monkeypatch.setattr(weyl, "_memory_budget", lambda: 16384)
    gcm = build_catalog("HA2").gcm
    lam = (1, 0, 0, 0)
    assert weyl._parabolic(gcm, 10)[0] == lam
    levels = weyl._whole_levels(gcm, 10, False, lam)
    assert tuple(map(len, levels)) == (1, 1, 1, 2, 2, 3, 5, 7, 10, 15, 22)
    assert sum(level.nbytes for level in levels) == 2208
    with pytest.raises(LevelTooLargeError, match="budget of 16384 bytes") as info:
        enumerate_levels(gcm, 10, full_history_dedup=True)
    assert info.value.level == 10
    assert info.value.bytes_needed == 2208 + 68 * weyl._ORACLE_STATE_BYTES
    code = main(["growth", "--algebra", "HA2", "--order", "10", "--debug-full-dedup"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: level ")


def test_growth_past_the_coordinate_budget_exits_3(capsys, tmp_path):
    # The triple bond's coordinates grow geometrically and cross the
    # checked 64-bit budget before order 100: an OverflowError, exit 3,
    # with nothing printed.
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "matrix": [[2, -3], [-3, 2]]}))
    code = main(["growth", "--gcm-file", str(path), "--order", "100"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "budget" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["--order", "-1"], "must be >= 0"),
    (["--order", "3", "--workers", "0"], "must be >= 1"),
], ids=["order", "workers"])
def test_growth_rejects_a_negative_order_and_no_workers(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--algebra", "A2", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tally,problem", [
    ([[1, 1], [4, 4]], "tally of shape (2, 2) for order 6"),
    ([[1, 1, 0], [-1, 0, 1]], "negative count"),
    # Level 0 has one up-edge and level 1 one left descent, so the edge
    # count holds, but HA2 has rank 4 and level 1 five elements.
    ([[1, 1, 0], [5, 0, 1]], "level 1 has more than rank times the elements of level 0"),
], ids=["tally-shape", "negative-count", "growth-bound"])
def test_growth_refuses_a_finished_checkpoint_with_an_inconsistent_tally(capsys, monkeypatch, tmp_path,
                                                                        tally, problem):
    # A finished walk of HA2 to order 6, nothing waiting, whose tally is
    # forged; its digest is computed on save, so only the tally is wrong.
    monkeypatch.delenv("WEYLGROWTH_CHECKPOINT_DIR", raising=False)
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.npz"
    weyl.LevelCheckpoint(weyl.gcm_digest(gcm), 6, np.asarray(tally, dtype=np.int64),
                         np.zeros((0, 2), np.int64), np.zeros((0, gcm.rank), np.int64)).save(ck)
    code = main(["growth", "--algebra", "HA2", "--order", "6", "--checkpoint", str(ck)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "inconsistent" in captured.err and problem in captured.err


def test_growth_unknown_algebra_exits_2(capsys):
    code, _ = run(capsys, ["growth", "--algebra", "Z9", "--order", "3"])
    assert code == 2


def test_growth_requires_source():
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--order", "3"])
    assert exc.value.code == 2


def test_growth_from_gcm_file(capsys, tmp_path):
    path = tmp_path / "gcm.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "matrix": [[2, -2], [-2, 2]]}))
    code, out = run(capsys, ["growth", "--gcm-file", str(path), "--order", "5", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [1, 2, 2, 2, 2, 2]
    assert payload["algebra"] == "gcm"


def test_fit_from_gcm_file_reports_its_name(capsys, tmp_path):
    # Affine A1 grows as (1 + t)/(1 - t), so P(A1)/W(t) = 1 - t.
    path = tmp_path / "mine.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "matrix": [[2, -2], [-2, 2]]}))
    code, out = run(capsys, ["fit", "--gcm-file", str(path), "--candidate", "A1",
                             "--order", "6", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "mine"
    assert payload["quotient"] == [1, -1]


def test_growth_bad_gcm_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    # A bad diagonal, a JSON boolean entry, labels that are not an array,
    # and a matrix, then a row, that is not an array.
    for payload in ({"labels": ["0"], "matrix": [[3]]},
                    {"matrix": [[2, False], [False, 2]]},
                    {"labels": "ab", "matrix": [[2, 0], [0, 2]]},
                    {"matrix": 5},
                    {"matrix": [5]}):
        path.write_text(json.dumps(payload))
        code, out = run(capsys, ["growth", "--gcm-file", str(path), "--order", "2"])
        assert code == 2 and out == ""
    code, _ = run(capsys, ["growth", "--gcm-file", str(tmp_path / "missing.json"), "--order", "2"])
    assert code == 2


def test_growth_invariant_failure_exits_5(capsys, monkeypatch):
    children = weyl._children
    monkeypatch.setattr(weyl, "_children", lambda *args, **kw: children(*args, **kw)[1:])
    code = main(["growth", "--algebra", "HA2", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    # HA2's walk, of its quotient by affine A2, has one up-edge from the
    # identity, at node -1, and the child it leads to is dropped.
    assert captured.err.startswith("error: level 1: 1 up-edges lead in, 0 left descents")


def test_growth_negative_coordinate_exits_5(capsys, monkeypatch):
    # The walk checks every child it builds to be nonnegative.
    children = weyl._children

    def one_negative(*args, **kw):
        out = children(*args, **kw)
        out[:1, 0] = -1
        return out

    monkeypatch.setattr(weyl, "_children", one_negative)
    code = main(["growth", "--algebra", "HA3", "--order", "6"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "error: negative coordinate generated: enumeration invariant violated\n"


@pytest.mark.parametrize("error,code", [
    (weyl.CheckpointMismatchError("bad file"), 4),  # a RuntimeError, which would give 5
    (OverflowError("too big"), 3),
    (LevelTooLargeError(7, 100, 10), 2),
    (ValueError("bad value"), 2),
    (KeyError("nope"), 2),
    (OSError("no such file"), 2),
    (RuntimeError("broken"), 5),
], ids=["checkpoint", "overflow", "memory", "value", "key", "os", "runtime"])
def test_main_takes_each_exit_code_from_one_table(capsys, monkeypatch, error, code):
    def raises():
        raise error

    monkeypatch.setattr(cli, "finite_families_help", raises)
    assert main(["catalog"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


def test_growth_lost_leaf_exits_5(capsys, monkeypatch):
    counts = weyl._leaf_counts
    monkeypatch.setattr(weyl, "_leaf_counts",
                        lambda *args, **kw: tuple(n - 1 for n in counts(*args, **kw)))
    code = main(["growth", "--algebra", "HA2", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    # HA2's one walk, of its quotient by affine A2, counts its level 3 from
    # the masks of level 2: two elements with a left descent each, and the
    # counter loses one.
    assert captured.err.startswith("error: level 3: 2 up-edges lead in, 1 left descents")


@pytest.mark.parametrize("order", [3, 60])
def test_growth_of_a_w_j_called_finite_that_does_not_end_exits_5(capsys, monkeypatch, order):
    # HA2 less its node -1 is affine A2.  Called finite, its roots are
    # closed under the simple reflections, and the closure passes the 45
    # positive roots a finite W_J of rank 3 can have.  That bound does not
    # depend on the order.
    affine = build_catalog("HA2").gcm.delete_node("-1")
    real = weyl.cartan_type
    monkeypatch.setattr(weyl, "cartan_type", lambda gcm: "finite" if gcm == affine else real(gcm))
    code = main(["growth", "--algebra", "HA2", "--order", str(order)])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err.startswith("error: W_J on the nodes 0 1 2 is not finite: it has more than 45 positive roots")


def test_growth_that_cannot_allocate_its_arrays_exits_2(capsys, monkeypatch):
    # numpy refuses an array of 2**50 rows without touching memory.
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 1 << 50)
    code = main(["growth", "--algebra", "HA2", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


# -------------------------------------------------------------- checkpoints

def test_growth_checkpoint_resume(capsys, tmp_path):
    ck = tmp_path / "state.npz"
    run(capsys, ["growth", "--algebra", "HA2", "--order", "6", "--checkpoint", str(ck)])
    assert ck.exists()
    _, resumed = run(capsys, ["growth", "--algebra", "HA2", "--order", "10", "--checkpoint", str(ck)])
    _, fresh = run(capsys, ["growth", "--algebra", "HA2", "--order", "10"])
    assert resumed == fresh


def test_growth_checkpoint_mismatch_exits_4(capsys, tmp_path):
    ck = tmp_path / "state.npz"
    run(capsys, ["growth", "--algebra", "A2", "--order", "2", "--checkpoint", str(ck)])
    code, _ = run(capsys, ["growth", "--algebra", "A3", "--order", "2", "--checkpoint", str(ck)])
    assert code == 4


def test_growth_edited_checkpoint_exits_4(capsys, tmp_path):
    ck = tmp_path / "state.npz"
    run(capsys, ["growth", "--algebra", "HA2", "--order", "6", "--checkpoint", str(ck)])
    tally = _read_checkpoint(ck)["tally"]
    tally[-1, 0] += 1
    _rewrite_checkpoint(ck, tally=tally)
    code, out = run(capsys, ["growth", "--algebra", "HA2", "--order", "10", "--checkpoint", str(ck)])
    assert code == 4 and out == ""


def test_checkpoint_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLGROWTH_CHECKPOINT_DIR", str(tmp_path))
    run(capsys, ["growth", "--algebra", "A2", "--order", "3", "--checkpoint", "rel.npz"])
    assert (tmp_path / "rel.npz").exists()


# ----------------------------------------------------------------- poincare

def test_poincare_finite(capsys):
    code, out = run(capsys, ["poincare", "--algebra", "D5", "--output", "json"])
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert len(coeffs) == 21 and sum(coeffs) == 1920


def test_poincare_a1(capsys):
    code, out = run(capsys, ["poincare", "--algebra", "A1", "--output", "json"])
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 1]


def test_poincare_affine(capsys):
    code, out = run(capsys, ["poincare", "--affine", "A1", "--order", "6", "--output", "json"])
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 2, 2, 2, 2, 2, 2]


def test_poincare_rejects_non_finite(capsys):
    code, _ = run(capsys, ["poincare", "--algebra", "HA2"])
    assert code == 2
    code, _ = run(capsys, ["poincare", "--algebra", "AffA1"])
    assert code == 2
    code, _ = run(capsys, ["poincare", "--affine", "HA2", "--order", "5"])
    assert code == 2


def test_poincare_affine_requires_order(capsys):
    code, _ = run(capsys, ["poincare", "--affine", "A1"])
    assert code == 2


# ---------------------------------------------------------------------- fit

def test_fit_polynomial_verdict(capsys):
    code, out = run(capsys, ["fit", "--algebra", "HA2", "--candidate", "A3",
                             "--order", "24", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "polynomial"
    assert payload["degree"] == 5
    assert payload["quotient"] == [1, -1, -1, 0, 0, 1]


def test_fit_non_terminating_verdict(capsys):
    code, out = run(capsys, ["fit", "--algebra", "HA3", "--candidate", "A4",
                             "--order", "17", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "non_terminating"
    assert payload["quotient"] is None
    assert payload["evidence"]


def test_fit_csv_contains_verdict_and_coeffs(capsys):
    code, out = run(capsys, ["fit", "--algebra", "HA2", "--candidate", "A3",
                             "--order", "24", "--output", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    table = {key: value for key, value, *rest in rows[1:] if not key.isdigit()}
    assert table["verdict"] == "polynomial"
    coeffs = [int(v) for k, v in rows[1:] if k.isdigit()]
    assert coeffs == [1, -1, -1, 0, 0, 1]


def test_fit_insufficient_order_exits_2(capsys):
    code, _ = run(capsys, ["fit", "--algebra", "HA2", "--candidate", "D4", "--order", "10"])
    assert code == 2


def test_fit_against_a_finite_group_reads_its_series_to_the_order(capsys):
    # A3 ends at length 6, but its series is exact at every order: A3 over
    # itself is 1, and A2 over D4 does not terminate by order 30.
    code, out = run(capsys, ["fit", "--algebra", "A3", "--candidate", "A3",
                             "--order", "20", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["degree"]) == ("polynomial", 0)
    assert payload["quotient"] == [1] and payload["order"] == 20
    code, out = run(capsys, ["fit", "--algebra", "D4", "--candidate", "A2",
                             "--order", "30", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "non_terminating" and payload["order"] == 30
    assert payload["evidence"] == [26, 27, 28, 29, 30]
    code, _ = run(capsys, ["fit", "--algebra", "A3", "--candidate", "A3", "--order", "8"])
    assert code == 2


def test_fit_rejects_non_finite_candidate(capsys):
    code, _ = run(capsys, ["fit", "--algebra", "HA2", "--candidate", "AffA1", "--order", "12"])
    assert code == 2


# ------------------------------------------------------------------ catalog

def test_catalog_lists_families(capsys):
    code, out = run(capsys, ["catalog", "--output", "json"])
    assert code == 0
    names = {row["name"] for row in json.loads(out)}
    assert {"A<n>", "D<n>", "AffA<n>", "HA<n>"} <= names


# ------------------------------------------------------------- verify-paper

def test_verify_paper_quick_gate(capsys):
    code, out = run(capsys, ["verify-paper", "--order", "12", "--output", "json"])
    items = json.loads(out)
    assert code == 0
    statuses = {item["item"]: item["status"] for item in items}
    assert statuses["growth-ha3"] == "pass"
    assert statuses["fit-ha2-a3"] == "pass"
    assert all(status in ("pass", "skip") for status in statuses.values())


def test_verify_paper_csv(capsys):
    code, out = run(capsys, ["verify-paper", "--order", "12", "--output", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["item", "status", "expected", "actual"]
    assert all(row[1] in ("pass", "fail", "skip") for row in rows[1:])


@pytest.mark.parametrize("order,prefixed,skipped", [
    (5, {"fit-ha3-d5", "fit-ha2-d4", "fit-ha2-a3", "fit-ha2-a4"},
     {"nonterminating-ha3-a4": "needs order >= 15", "nonterminating-ha3-a5": "needs order >= 20",
      "cyclotomic-content-ha2-d4": "needs the full HA2/D4 fit (order >= 17)"}),
    (17, {"fit-ha3-d5"}, {"nonterminating-ha3-a5": "needs order >= 20"}),
    (20, {"fit-ha3-d5"}, {}),
])
def test_verify_paper_fits_in_full_from_the_numerator_degree_plus_the_margin(capsys, order, prefixed,
                                                                              skipped):
    # A quotient is fitted in full once the order reaches the degree of its
    # numerator, the candidate's Poincare polynomial, plus the margin of 5,
    # and is otherwise checked as a prefix: P(D5) has degree 20, so D5/HA3
    # needs 25, P(D4) 12, so D4/HA2 needs 17.  A non-terminating check
    # needs the same order and is skipped below it.
    code, out = run(capsys, ["verify-paper", "--order", str(order), "--output", "json"])
    items = json.loads(out)
    assert code == 0 and len(items) == 15
    assert {i["item"] for i in items if i["item"].endswith("-prefix")} == {f"{n}-prefix" for n in prefixed}
    assert {i["item"]: i["actual"] for i in items if i["status"] == "skip"} == skipped
    assert all(i["status"] in ("pass", "skip") for i in items)


def test_verify_paper_says_a_failed_fit_is_why_it_skips_the_cyclotomic_content(capsys, monkeypatch):
    # With a wrong last factor in golden's HA2/D4 quotient the full fit
    # fails, and the cyclotomic content, which divides the fitted quotient,
    # is skipped because of that failure, not for want of order.
    factors = golden.QUOTIENT_FACTORS[("HA2", "D4")]
    monkeypatch.setitem(golden.QUOTIENT_FACTORS, ("HA2", "D4"), factors[:-1] + ((1, -1, 0, 1),))
    code, out = run(capsys, ["verify-paper", "--order", "17"])
    lines = out.splitlines()
    assert code == 1
    assert ("FAIL  fit-ha2-d4                 expected [1, 0, -1, 2, 0, -1, 2, -1, -1, 1, -1, -1]  "
            "actual [1, 0, -1, 0, -2, -1, 0, -1, 1, 1, 1, 1]") in lines
    assert "SKIP  cyclotomic-content-ha2-d4  (the HA2/D4 fit failed)" in lines
    assert lines[-1] == "15 checks, 1 failed"


# ------------------------------------------------------ text output, exactly

TEXT_OUTPUTS = {
    "fit --algebra HA2 --candidate A3 --order 24": (
        "algebra: HA2\n"
        "candidate: A3\n"
        "order: 24\n"
        "margin: 5\n"
        "verdict: polynomial\n"
        "degree: 5\n"
        "margin_checked: 19\n"
        "quotient: 1 -1 -1 0 0 1\n"
        "evidence:\n"
        "quotient_polynomial: 1 - t - t^2 + t^5\n"
    ),
    "fit --algebra HA3 --candidate A4 --order 17": (
        "algebra: HA3\n"
        "candidate: A4\n"
        "order: 17\n"
        "margin: 5\n"
        "verdict: non_terminating\n"
        "degree: None\n"
        "margin_checked: 0\n"
        "quotient:\n"
        "evidence: 13 14 15 16 17\n"
    ),
    "growth --algebra A3 --order 99": (
        "algebra: A3\n"
        "order: 6\n"
        "coeffs: 1 3 5 6 5 3 1\n"
        "complete: True\n"
    ),
    "poincare --affine A2 --order 9": (
        "algebra: affine A2\n"
        "order: 9\n"
        "coeffs: 1 3 6 9 12 15 18 21 24 27\n"
    ),
    "catalog": (
        "A<n>     n >= 1       finite\n"
        "B<n>     n >= 2       finite\n"
        "C<n>     n >= 2       finite\n"
        "D<n>     n >= 3       finite\n"
        "E<n>     6 <= n <= 8  finite\n"
        "F<n>     n = 4        finite\n"
        "G<n>     n = 2        finite\n"
        "AffA<n>  n >= 1       affine\n"
        "HA<n>    n >= 2       hyperbolic (over-extended)\n"
    ),
    "verify-paper --order 12": (
        "PASS  growth-ha3\n"
        "PASS  fit-ha3-d5-prefix\n"
        "PASS  fit-ha2-d4-prefix\n"
        "PASS  fit-ha2-a3\n"
        "PASS  fit-ha2-a4-prefix\n"
        "SKIP  nonterminating-ha3-a4      (needs order >= 15)\n"
        "SKIP  nonterminating-ha3-a5      (needs order >= 20)\n"
        "PASS  finite-order-a2\n"
        "PASS  finite-order-a3\n"
        "PASS  finite-order-a4\n"
        "PASS  finite-order-d4\n"
        "PASS  finite-order-d5\n"
        "PASS  affine-series-a1\n"
        "PASS  affine-series-a2\n"
        "SKIP  cyclotomic-content-ha2-d4  (needs the full HA2/D4 fit (order >= 17))\n"
        "15 checks, 0 failed\n"
    ),
    "verify-paper": (
        "PASS  growth-ha3\n"
        "PASS  fit-ha3-d5\n"
        "PASS  fit-ha2-d4\n"
        "PASS  fit-ha2-a3\n"
        "PASS  fit-ha2-a4\n"
        "PASS  nonterminating-ha3-a4\n"
        "PASS  nonterminating-ha3-a5\n"
        "PASS  finite-order-a2\n"
        "PASS  finite-order-a3\n"
        "PASS  finite-order-a4\n"
        "PASS  finite-order-d4\n"
        "PASS  finite-order-d5\n"
        "PASS  affine-series-a1\n"
        "PASS  affine-series-a2\n"
        "PASS  cyclotomic-content-ha2-d4\n"
        "15 checks, 0 failed\n"
    ),
}


@pytest.mark.parametrize("command", TEXT_OUTPUTS)
def test_text_output_bytes(capsys, command):
    code, out = run(capsys, command.split())
    assert code == 0
    assert out == TEXT_OUTPUTS[command]
