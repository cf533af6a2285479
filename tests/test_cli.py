import json
from pathlib import Path

import pytest

from divisorlab import cli, moments, sieves, voronoi
from divisorlab.cli import main
from divisorlab.error_terms import ErrorTermKind, error_term
from divisorlab.moments import moment
from divisorlab.sieves import TableKind, load_table, save_table, sieve_divisors, sieve_r
from divisorlab.spacing import BoxSpec, SpacingForm, count_box

from test_spacing import ROOT_SUM_BOXES, root_sum_floor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_matches_library(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "delta", "--x", "10")
    assert code == 0
    assert float(out.strip()) == error_term(ErrorTermKind.DELTA, 10)
    assert out.strip().startswith("2.4298")


def test_eval_scientific_notation(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "circle", "--x", "1e2")
    assert code == 0
    assert float(out.strip()) == error_term(ErrorTermKind.CIRCLE, 100)


def test_sieve_roundtrip(tmp_path, capsys):
    path = tmp_path / "d.dvt"
    code, _, _ = run(capsys, "--output", str(path), "sieve", "--kind", "divisor",
                     "--limit", "100")
    assert code == 0
    table = load_table(path, expected_kind=TableKind.DIVISOR)
    assert table.limit == 100 and int(table.values[12]) == 6


def test_moment_csv_row(capsys, tmp_path):
    out_file = tmp_path / "m.csv"
    code, _, _ = run(capsys, "--output", str(out_file), "moment", "--kind",
                     "delta", "--power", "1", "--from", "1", "--to", "100")
    assert code == 0
    header, row = out_file.read_text().strip().splitlines()
    assert header == "kind,power,X,integral,main_term,residual"
    cells = row.split(",")
    assert cells[0] == "delta" and cells[1] == "1"
    expected = moment(ErrorTermKind.DELTA, 1, (1, 100)).integral
    assert float(cells[3]) == expected
    assert cells[4] == "" and cells[5] == ""   # no theory constant for power 1


def test_moment_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "--output", str(a), "moment", "--kind", "circle", "--power",
        "2", "--to", "200")
    run(capsys, "--output", str(b), "moment", "--kind", "circle", "--power",
        "2", "--to", "200")
    assert a.read_bytes() == b.read_bytes()


def test_moment_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "moment", "--kind", "delta",
                       "--power", "1", "--to", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["integral"] == moment(ErrorTermKind.DELTA, 1, (1, 100)).integral
    assert doc["partition_count"] == 99
    assert "main_term" not in doc


def test_moment_main_term_from_above_one(capsys):
    # over [a, b] with a > 1 the main term is the increment c*(b^e - a^e)
    code, out, _ = run(capsys, "--format", "json", "moment", "--kind", "delta",
                       "--power", "3", "--from", "1e5", "--to", "2e5",
                       "--cutoff", "1000")
    assert code == 0
    doc = json.loads(out)
    c = moments.theory_coefficient(ErrorTermKind.DELTA, 3, cutoff=1000)
    e = moments.main_exponent(3)
    assert doc["main_term"] == pytest.approx(c * (2e5 ** e - 1e5 ** e), rel=1e-12)
    assert doc["residual"] == doc["integral"] - doc["main_term"]


def test_spacing_json_carries_full_spec(capsys):
    code, out, _ = run(capsys, "--format", "json", "spacing", "--form",
                       "near-integer", "--K", "500", "--delta", "0.01",
                       "--alpha", "2", "--beta", "0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 2.0 and doc["beta"] == 0.25
    assert doc["count"] >= 0 and doc["bound_2_16"] is None


def test_voronoi_value(capsys):
    code, out, _ = run(capsys, "voronoi", "--kind", "delta", "--truncation",
                       "2", "--x", "1")
    assert code == 0
    assert abs(float(out.strip()) - 0.08194208036257869) < 1e-12


@pytest.mark.parametrize("flags", [("--x", "100", "--scale", "100"), ()],
                         ids=["both", "neither"])
def test_voronoi_needs_exactly_one_of_x_and_scale(capsys, flags):
    code, out, err = run(capsys, "voronoi", "--kind", "delta", "-N", "10", *flags)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "--x" in err and "--scale" in err
    assert "usage: divisorlab" in err


def test_voronoi_remainder_csv(capsys):
    code, out, _ = run(capsys, "voronoi", "--kind", "delta", "--truncation",
                       "32", "--scale", "1000", "--seed", "42")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("kind,X,N,")
    assert row.split(",")[2] == "32"


def test_spacing_csv_schema(capsys):
    code, out, _ = run(capsys, "spacing", "--form", "three-root", "--M", "8",
                       "--Mp", "8", "--delta", "0.01")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "form,M,Mp,K,L,delta,count,bound_2_15,bound_2_16,ratio"
    cells = row.split(",")
    spec = BoxSpec(form=SpacingForm.THREE_ROOT, M=8, Mp=8, delta=0.01)
    res = count_box(spec)
    assert cells[0] == "three-root"
    assert int(cells[6]) == res.count
    assert float(cells[7]) == res.bound_primary
    assert cells[8] == ""        # single-bound form
    assert float(cells[9]) == res.ratio


def test_spacing_two_bound_form(capsys):
    code, out, _ = run(capsys, "spacing", "--form", "four-root-minus", "--M",
                       "8", "--Mp", "8", "--K", "8", "--L", "8", "--delta",
                       "0.001")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[7] != "" and row[8] != ""


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--name", "cubic_coefficient",
                       "--cutoff", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "cubic_coefficient"
    assert doc["cutoff"] == 100
    assert doc["value"] > 0 and doc["tail_bound"] > 0
    assert "timestamp" in doc


def test_constants_reruns_identical_modulo_timestamp(capsys):
    _, out1, _ = run(capsys, "constants", "--name", "cubic_diagonal",
                     "--cutoff", "64")
    _, out2, _ = run(capsys, "constants", "--name", "cubic_diagonal",
                     "--cutoff", "64")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timestamp")
    d2.pop("timestamp")
    assert d1 == d2


def test_fit_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--format", "json", "fit", "--kind", "delta",
                       "--power", "2", "--grid", "100,400,1600,6400",
                       "--cutoff", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["power"] == 2
    assert len(doc["residual_series"]) == 4
    assert doc["main_exponent"] == 1.5


def test_short_interval_json(capsys):
    code, out, _ = run(capsys, "short-interval", "--kind", "delta", "--power",
                       "4", "--x", "1000", "--h", "1000")
    assert code == 0
    doc = json.loads(out)
    assert doc["in_asymptotic_range"] is True
    assert doc["ratio"] == doc["moment"] / doc["main_term"]


def test_power_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "moment", "--kind", "delta", "--power", "12",
                       "--to", "100")
    assert code == 1
    assert "1..9" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "eval", "--kind", "delta")
    assert code == 1


@pytest.mark.parametrize("argv,flag", [
    (("moment", "--kind", "delta", "--power", "2", "--to", "100"), ("--order", "8")),
    (("fit", "--kind", "delta", "--power", "2", "--grid", "1e3,2e3,3e3,4e3"),
     ("--order", "8")),
    (("short-interval", "--kind", "delta", "--power", "4", "--x", "100", "--h", "100"),
     ("--order", "8")),
    (("spacing", "--form", "three-root", "--M", "8", "--Mp", "8", "--delta", "0.01"),
     ("--exclude-exact",)),
], ids=["moment", "fit", "short-interval", "spacing"])
def test_removed_flag_is_usage_error(capsys, argv, flag):
    # the quadrature is fixed at order 8, so --order is no flag, not even
    # --order 8; each spacing form's inequality decides on its exact zeros
    code, out, err = run(capsys, *argv, *flag)
    assert code == 1
    assert out == "" and err.startswith("usage error:")


def test_negative_scientific_flag_needs_equals_form(capsys):
    # argparse reads "-1.5e2" after a space as a flag; the --flag=value form
    # passes it as the value
    argv = ("--format", "json", "spacing", "--form", "near-integer", "--K", "64",
            "--alpha", "2", "--delta", "0.01")
    code, want, _ = run(capsys, *argv, "--beta", "-150")
    assert code == 0
    assert run(capsys, *argv, "--beta=-1.5e2") == (0, want, "")


@pytest.mark.parametrize("argv", [
    ("eval", "--kind", "delta", "--x", "inf"),
    ("eval", "--kind", "delta", "--x", "nan"),
    ("eval", "--kind", "delta", "--x", "1e400"),
    ("sieve", "--kind", "divisor", "--limit", "1e400"),
    ("moment", "--kind", "delta", "--power", "2", "--to", "inf"),
], ids=["x-inf", "x-nan", "x-1e400", "limit-1e400", "to-inf"])
def test_non_finite_flag_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "not a finite number" in err


def test_sieve_without_output_is_usage_error(capsys):
    code, out, err = run(capsys, "sieve", "--kind", "divisor", "--limit", "100")
    assert code == 1
    assert out == "" and "--output" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--kind", "delta", "--x", "10"),
    ("sieve", "--kind", "divisor", "--limit", "100"),
], ids=["eval", "sieve"])
def test_unwritable_output_is_file_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "--output", str(target), *argv)
    assert code == 2
    assert out == "" and err.startswith("file error:")
    assert not target.parent.exists()


def test_missing_output_directory_names_the_path_given(capsys, tmp_path):
    # save_table writes a temporary beside the target; the message names
    # the target
    target = tmp_path / "missing" / "t.dvt"
    code, out, err = run(capsys, "--output", str(target), "sieve", "--kind",
                         "divisor", "--limit", "100")
    assert code == 2 and out == ""
    assert err.startswith("file error:") and repr(str(target)) in err
    assert ".tmp" not in err


@pytest.mark.parametrize("argv,names", [
    (("eval", "--kind", "delta-prime", "--x", "10"),
     [kind.value for kind in ErrorTermKind]),
    (("moment", "--kind", "Delta", "--power", "2", "--to", "100"),
     [kind.value for kind in ErrorTermKind]),
    (("spacing", "--form", "two-root", "--M", "8", "--delta", "0.1"),
     [form.value for form in SpacingForm]),
], ids=["eval-kind", "moment-kind", "spacing-form"])
def test_unknown_name_is_usage_error_listing_names(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and err.startswith("usage error:")
    assert all(repr(name) in err for name in names)


def test_empty_grid_is_usage_error(capsys):
    code, out, err = run(capsys, "fit", "--kind", "delta", "--power", "2",
                         "--grid", ",")
    assert code == 1
    assert out == "" and "empty grid" in err


def test_eval_range_error_names_the_x_given(capsys):
    # delta-star reads D(4x): its top is 1e17 / 4, and the message names the
    # x given, not 4x
    code, out, err = run(capsys, "eval", "--kind", "delta-star", "--x", "3e16")
    assert code == 2 and out == ""
    assert err.startswith("compute error:") and "3e+16" in err
    assert run(capsys, "eval", "--kind", "delta-star", "--x", "2.5e16") == (0, "5801.75\n", "")


def test_one_parser_carries_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    stats = ("voronoi", "--kind", "delta", "--truncation", "32", "--scale", "1000",
             "--seed", "42")
    assert run(capsys, "eval", "--kind", "delta")[0] == 1
    assert run(capsys, "eval", "--kind", "delta", "--x", "0.5")[0] == 2
    code, out, _ = run(capsys, "--format", "json", *stats)
    assert code == 0 and json.loads(out)["N"] == 32
    code, out, _ = run(capsys, *stats)
    assert code == 0 and out.startswith("kind,X,N,") and len(out.splitlines()) == 2
    assert run(capsys, "eval", "--kind", "delta", "--x", "10") == (
        0, "2.4298357720288859\n", "")


def test_compute_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--kind", "delta", "--x", "0.5")
    assert code == 2
    assert "x >= 1" in err


@pytest.mark.parametrize("argv", [
    ("voronoi", "--kind", "delta", "--truncation", "10", "--x", "1e300"),
    ("spacing", "--form", "near-integer", "--K", "10", "--delta", "0.1",
     "--alpha", "1e300"),
    # k^2 past 2^44: 1e9 used to miscount by 3, 1e300 to overflow
    ("spacing", "--form", "three-root", "--M", "5", "--Mp", "3", "--delta", "1e9"),
    ("spacing", "--form", "three-root", "--M", "5", "--Mp", "3", "--delta", "1e300"),
    # bounds past double range, which JSON cannot hold
    ("spacing", "--form", "four-root-minus", "--M", "4", "--Mp", "4", "--K", "4",
     "--L", "4", "--delta", "1e307"),
    ("spacing", "--form", "four-root-plus", "--M", "2", "--Mp", "2", "--K", "2",
     "--L", "8", "--delta", "1e308"),
    ("spacing", "--form", "four-root-kth", "--M", "3", "--delta", "1e308",
     "--root-k", "200"),
], ids=["voronoi-phase", "near-integer-fraction", "three-root-1e9", "three-root-1e300",
        "four-root-minus-bound", "four-root-plus-bound", "four-root-kth-bound"])
def test_beyond_extended_precision_is_compute_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "compute error" in err


def test_three_root_guard_reads_the_band_alone(capsys):
    # (sqrt(128) + sqrt(128) + 1e5 * 8)^2 = 6.4e11, under 2^44, keeps the
    # band under 2^-5; (5, 3, 1e7) reaches 5e14 and is refused
    code, out, err = run(capsys, "--format", "json", "spacing", "--form", "three-root",
                         "--M", "64", "--Mp", "64", "--delta", "1e5")
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == 2621568156902998
    code, out, err = run(capsys, "spacing", "--form", "three-root", "--M", "5", "--Mp", "3",
                         "--delta", "1e7")
    assert code == 2 and out == ""
    assert err.startswith("compute error:") and "fractional bits" in err and "Mp*" not in err


def test_spacing_root_power_overflow_is_silent(capsys):
    # (s + t)^50 overflows longdouble; the infinite end is clipped to the box
    code, out, err = run(capsys, "--format", "json", "spacing", "--form",
                         "four-root-kth", "--M", "1", "--delta", "1e308",
                         "--root-k", "50")
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == 1


def test_spacing_huge_root_order(capsys):
    # 2^(10^300) is never formed: every n of the box is its own kernel
    code, out, err = run(capsys, "--format", "json", "spacing", "--form",
                         "four-root-kth", "--M", "4", "--delta", "0.1",
                         "--root-k", "1e300")
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == 256


@pytest.mark.parametrize("form,box,top,scale", ROOT_SUM_BOXES)
def test_spacing_threshold_under_rounding_is_compute_error(capsys, form, box, top, scale):
    sides = [arg for name, v in box.items()
             for arg in ("--root-k" if name == "root_k" else f"--{name}", str(v))]
    for delta in (1e-20, root_sum_floor(top, scale) * 0.99):
        code, out, err = run(capsys, "--format", "json", "spacing", "--form", form.value,
                             *sides, "--delta", repr(delta))
        assert code == 2 and out == ""
        assert err.startswith("compute error:") and "Traceback" not in err


@pytest.mark.parametrize("argv,unread", [
    (("--form", "three-root", "--M", "8", "--Mp", "8", "--K", "99"), "K"),
    (("--form", "three-root", "--M", "8", "--Mp", "8", "--root-k", "3", "--alpha", "5"),
     "root_k, alpha"),
    (("--form", "four-root-kth", "--M", "8", "--Mp", "5", "--L", "7"), "Mp, L"),
    (("--form", "four-root-minus", "--M", "4", "--Mp", "4", "--K", "4", "--L", "4",
      "--beta", "0.5"), "beta"),
], ids=["three-root-K", "three-root-root-k-alpha", "four-root-kth-Mp-L", "minus-beta"])
def test_spacing_unread_field_is_compute_error(capsys, argv, unread):
    # each printed the ignored value in its JSON as if the count had used it
    code, out, err = run(capsys, "--format", "json", "spacing", *argv, "--delta", "0.1")
    assert code == 2 and out == ""
    assert err == f"compute error: form {argv[1]} does not read {unread}\n"


def test_cache_dir_reuse(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "--cache-dir", str(cache), "moment", "--kind",
                     "delta", "--power", "1", "--to", "50")
    assert code == 0
    # the library's need for --to 50: d up to 50
    assert [entry.name for entry in cache.iterdir()] == ["divisor-50.dvt"]
    # second run loads the cached table (still succeeds, same answer)
    code, _, _ = run(capsys, "--cache-dir", str(cache), "moment", "--kind",
                     "delta", "--power", "1", "--to", "50")
    assert code == 0


def test_cache_lookup_opens_only_the_needed_kind(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sieved although an adequate cache file loads")

    # the other names carry the needed limit, so that a lookup that took
    # them for divisor tables would try them before divisor-100.dvt
    cache = tmp_path / "cache"
    cache.mkdir()
    save_table(sieve_divisors(100), cache / "divisor-100.dvt")
    save_table(sieve_r(50), cache / "two-squares-50.dvt")
    save_table(sieve_divisors(50), cache / "xdivisor-50.dvt")
    # what a save_table interrupted before its rename leaves behind
    partial = (cache / "xdivisor-50.dvt").read_bytes()[:40]
    (cache / "divisor-50.dvt.4242.tmp").write_bytes(partial)
    names = sorted(entry.name for entry in cache.iterdir())
    opened = []

    def recording_load(path, *args, **kwargs):
        opened.append(Path(path).name)
        return load_table(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_table", recording_load)
    monkeypatch.setattr(cli, "sieve", unreachable)
    # the library's need for --to 50: d up to 50
    code, out, err = run(capsys, "--cache-dir", str(cache), "moment", "--kind",
                         "delta", "--power", "1", "--to", "50")
    assert code == 0 and out and err == ""
    assert opened == ["divisor-100.dvt"]
    assert sorted(entry.name for entry in cache.iterdir()) == names


def test_step_table_over_ceiling_is_compute_error(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 8 * 10**5)
    monkeypatch.setattr(cli, "sieve", unreachable)
    # delta-star reads D(4x): 4e5 entries at 2.1 bytes each
    code, out, err = run(capsys, "moment", "--kind", "delta-star", "--power", "1",
                         "--to", "1e5")
    assert code == 2
    assert out == "" and err.startswith("compute error: step table") and "ceiling" in err


@pytest.mark.parametrize("argv", [
    ("moment", "--kind", "delta", "--power", "2", "--to", "1e308"),
    # 4 * 1e308 leaves the double range
    ("moment", "--kind", "delta-star", "--power", "2", "--to", "1e308"),
    ("short-interval", "--kind", "delta", "--power", "4", "--x", "1e300", "--h", "1"),
], ids=["moment-delta", "moment-delta-star", "short-interval"])
def test_huge_x_capacity_message_is_short(capsys, argv):
    # the sizes were printed in full, more than 600 digits
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("compute error: step table of ") and len(err) < 200


_NO_THEORY = ("theoretical moment coefficients are tabulated for the divisor "
              "error term only; supply one explicitly")


@pytest.mark.parametrize("argv,message", [
    (("short-interval", "--kind", "delta-star", "--power", "4", "--x", "1e7",
      "--h", "1e7"), _NO_THEORY),
    (("fit", "--kind", "circle", "--power", "3", "--grid", "1e5,1e6,1e7,2e7"),
     _NO_THEORY),
    (("moment", "--kind", "delta", "--power", "3", "--to", "1e7", "--cutoff", "3"),
     "cutoff must be >= 4, got 3"),
    (("short-interval", "--kind", "delta", "--power", "2", "--x", "100", "--h", "50"),
     "short-interval ratios are defined for powers 3 and 4"),
    (("short-interval", "--kind", "delta", "--power", "4", "--x", "100", "--h", "500"),
     "need 1 <= H <= X, got H=500.0, X=100.0"),
    (("fit", "--kind", "delta", "--power", "4", "--grid", "1e4,1e3,1e5,2e4"),
     "X grid must be strictly ascending"),
    (("moment", "--kind", "delta", "--power", "2", "--from", "5e6", "--to", "1e6"),
     "need 1 <= a < b, got [5000000.0, 1000000.0]"),
    (("fit", "--kind", "delta", "--power", "2", "--grid", "0.5,2,3,4"),
     "first stop lies before the interval start"),
], ids=["short-interval-kind", "fit-kind", "moment-cutoff", "short-interval-power",
        "short-interval-h", "fit-grid", "moment-interval", "fit-start"])
def test_rejected_before_any_table_is_sieved(capsys, monkeypatch, tmp_path, argv,
                                             message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a table was sieved for an input that is rejected")

    monkeypatch.setattr(cli, "sieve", unreachable)
    cache = tmp_path / "cache"
    cache.mkdir()
    code, out, err = run(capsys, "--cache-dir", str(cache), *argv)
    assert code == 2 and out == ""
    assert err == f"compute error: {message}\n"
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (("fit", "--kind", "delta", "--power", "4", "--grid", "1,2", "--cutoff", "3000000"),
     "need at least 4 grid points, got 2"),
    (("moment", "--kind", "delta", "--power", "4", "--from", "5", "--to", "1",
      "--cutoff", "3000000"), "need 1 <= a < b, got [5.0, 1.0]"),
    (("short-interval", "--kind", "delta", "--power", "4", "--x", "100", "--h", "500"),
     "need 1 <= H <= X, got H=500.0, X=100.0"),
    (("moment", "--kind", "delta", "--power", "3", "--to", "1e12", "--cutoff", "3000000"),
     "step table of 1.00e+12 entries needs about 2.10e+12 bytes, "
     f"over the {sieves.MEMORY_CEILING_BYTES}-byte memory ceiling"),
], ids=["fit-grid", "moment-interval", "short-interval-h", "moment-ceiling"])
def test_rejected_before_theory_series(capsys, monkeypatch, argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("theory series computed for an input that is rejected")

    monkeypatch.setattr(moments, "theory_coefficient", unreachable)
    monkeypatch.setattr(cli, "sieve", unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"compute error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("voronoi", "--kind", "delta", "-N", "10", "--scale", "100", "--samples", "1e9"),
], ids=["samples"])
def test_oversized_input_is_compute_error_before_allocating(capsys, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    monkeypatch.setattr(voronoi, "build_series", unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("compute error:") and "ceiling" in err


GOLDEN_DELTA_STAR = Path(__file__).parent / "golden" / "formats" / "02-moment.txt"


@pytest.mark.parametrize("damage", ["bytes", "kind"])
def test_damaged_cache_file_is_sieved_again(tmp_path, capsys, damage):
    cache = tmp_path / "cache"
    cache.mkdir()
    # the table that --to 3000 needs for delta-star: D up to 4 * 3000
    path = cache / "divisor-12000.dvt"
    if damage == "bytes":
        path.write_bytes(b"DVT1" + bytes(40))
    else:
        save_table(sieve_r(12000), path)
    code, out, err = run(capsys, "--cache-dir", str(cache), "--format", "json",
                         "moment", "--kind", "delta-star", "--power", "1",
                         "--from", "2.5", "--to", "3000")
    assert code == 0
    assert out == GOLDEN_DELTA_STAR.read_text(encoding="utf-8")
    assert err.startswith("cache: ") and err.count("\n") == 1
    fresh = load_table(path, expected_kind=TableKind.DIVISOR)
    assert (fresh.values == sieve_divisors(12000).values).all()


def test_damaged_cache_file_yields_to_a_larger_one(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sieved although an adequate cache file loads")

    monkeypatch.setattr(cli, "sieve", unreachable)
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "divisor-40000.dvt").write_bytes(b"DVT1" + bytes(40))
    save_table(sieve_divisors(50000), cache / "divisor-50000.dvt")
    argv = ("--cache-dir", str(cache), "moment", "--kind", "delta", "--power", "2",
            "--to", "35000")
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert err.startswith("cache: ") and err.endswith("; removed\n")
    assert err.count("\n") == 1
    assert [p.name for p in cache.iterdir()] == ["divisor-50000.dvt"]
    # the damaged file is gone, so the next run reads no damaged file
    assert run(capsys, *argv) == (0, out, "")


def test_cache_file_of_another_limit_is_sieved_again(tmp_path, capsys):
    # divisor-100.dvt holding a limit-20 table loads, but is short of the 50
    # that --to 50 needs: it is damaged, deleted and reported once, and the
    # run prints what a run with a fresh cache prints
    argv = ("moment", "--kind", "delta", "--power", "1", "--to", "50")
    fresh = run(capsys, "--cache-dir", str(tmp_path / "fresh"), *argv)
    cache = tmp_path / "cache"
    cache.mkdir()
    save_table(sieve_divisors(20), cache / "divisor-100.dvt")
    code, out, err = run(capsys, "--cache-dir", str(cache), *argv)
    assert (code, out) == fresh[:2] and code == 0
    assert err.startswith("cache: ") and "holds limit 20, named 100; removed" in err
    assert err.count("\n") == 1
    assert [p.name for p in cache.iterdir()] == ["divisor-50.dvt"]
    assert run(capsys, "--cache-dir", str(cache), *argv) == fresh


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("DIVISORLAB_CACHE", str(cache))
    code, _, _ = run(capsys, "moment", "--kind", "circle", "--power", "1",
                     "--to", "40")
    assert code == 0
    assert any(p.name.startswith("two-squares-") for p in cache.iterdir())


def test_module_entry_point():
    import subprocess
    import sys
    # run from the directory holding the package under test, installed or not
    where = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "divisorlab.cli", "eval", "--kind", "delta",
         "--x", "10"], capture_output=True, text=True, cwd=where)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("2.4298")
    bad = subprocess.run(
        [sys.executable, "-m", "divisorlab.cli", "moment", "--kind", "delta",
         "--power", "12", "--to", "10"], capture_output=True, text=True, cwd=where)
    assert bad.returncode == 1


def test_cli_runs_without_mpmath():
    import subprocess
    import sys
    code = ("import sys\n"
            "from divisorlab import cli\n"
            "assert cli.main(['moment', '--kind', 'delta', '--power', '2', '--to', '100']) == 0\n"
            "assert cli.main(['constants', '--name', 'quartic_coefficient',"
            " '--cutoff', '1000']) == 0\n"
            "assert 'mpmath' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=Path(cli.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
