import json

import pytest

from cyclodes import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_q13(capsys):
    code, out, _ = run(capsys, "classes", "--q", "13", "--d", "12")
    assert code == 0
    obj = json.loads(out)
    assert obj["g"] == 2
    assert [obj["classes"][str(i)] for i in range(3)] == [[1], [2], [4]]


def test_classes_rejects_composite(capsys):
    code, _, err = run(capsys, "classes", "--q", "14", "--d", "12")
    assert code == 2
    assert "not prime" in err


def test_classes_rejects_bad_order(capsys):
    code, _, err = run(capsys, "classes", "--q", "13", "--d", "5")
    assert code == 2
    assert "does not divide" in err


def test_cycnums_q13(capsys):
    code, out, _ = run(capsys, "cycnums", "--q", "13", "--d", "12", "--format", "csv")
    assert code == 0
    assert "# equality_table: PASS" in out
    assert "# row_sum_identity: PASS" in out
    assert "m,n,count" in out


def test_cycnums_check_m1(capsys):
    code, out, _ = run(capsys, "cycnums", "--q", "13", "--d", "12", "--check-m1")
    assert code == 0
    assert json.loads(out)["m1"] == "PASS"
    code, out, _ = run(capsys, "cycnums", "--q", "37", "--d", "12", "--check-m1")
    assert code == 0
    assert "skipped" in json.loads(out)["m1"]


def test_cycnums_d2(capsys):
    code, out, _ = run(capsys, "cycnums", "--q", "13", "--d", "2")
    assert code == 0
    counts = json.loads(out)["counts"]
    assert sum(map(sum, counts)) == 11


def test_verify_x1_q37(capsys):
    code, out, _ = run(capsys, "verify", "--q", "37", "--order", "12",
                       "--condition", "x1")
    assert code == 0
    reports = json.loads(out)
    assert all(r["pass"] for rep in reports for r in rep["recipes"])


def test_verify_auto_q13_no_zero(capsys):
    code, out, _ = run(capsys, "verify", "--q", "13", "--order", "12",
                       "--condition", "auto", "--no-zero")
    assert code == 0
    reports = json.loads(out)
    assert {rep["condition"] for rep in reports} == {"ym1a", "ym1b"}


def count_calls(monkeypatch, module, *names):
    """Count calls to module.<name> for each name from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("q, order, n_conditions, expected", [
    (229, 12, 2, {"build_classes": 1, "cyclotomic_numbers": 1, "resolve_signs": 1}),
    (29, 4, 1, {"build_classes": 1, "cyclotomic_numbers": 1, "resolve_signs": 0}),
])
def test_verify_auto_calibrates_once(monkeypatch, capsys, q, order, n_conditions, expected):
    # one class system, table and calibration serve auto and every condition
    from cyclodes import cyclotomy
    counts = count_calls(monkeypatch, cyclotomy, *expected)
    code, out, _ = run(capsys, "verify", "--q", str(q), "--order", str(order),
                       "--condition", "auto")
    assert code in (0, 1) and len(json.loads(out)) == n_conditions
    assert counts == expected


def test_verify_order4_wrong_residue(capsys):
    code, _, err = run(capsys, "verify", "--q", "17", "--order", "4",
                       "--condition", "t1")
    assert code == 2
    assert "5 mod 8" in err


@pytest.mark.parametrize("q, order", [
    (73, 12), (97, 12),     # 12f+1 with f even
    (25, 12),               # composite
    (3, 12), (19, 4),       # d does not divide q - 1
    (1, 4),                 # below the supported range
])
def test_verify_bad_prime_same_error_for_every_condition(capsys, q, order):
    from cyclodes import dhm
    named = dhm.ORDER12_CONDITIONS if order == 12 else dhm.ORDER4_CONDITIONS
    results = {cond: run(capsys, "verify", "--q", str(q), "--order", str(order),
                         "--condition", cond)
               for cond in ("auto",) + named}
    code, out, err = results["auto"]
    assert code == 2 and out == "" and err.startswith("error: ")
    assert all(r == results["auto"] for r in results.values()), results


def test_verify_unknown_condition(capsys):
    code, _, err = run(capsys, "verify", "--q", "37", "--order", "12",
                       "--condition", "zzz")
    assert code == 2


def test_search_d4(tmp_path, capsys):
    code, out, err = run(capsys, "search", "--d", "4", "--bound", "40",
                         "--report-dir", str(tmp_path))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    hits = [json.loads(l) for l in lines]
    assert all(h["d"] == 4 for h in hits)
    assert {h["q"] for h in hits} == {5, 13, 29, 37}
    csv_path = tmp_path / "family_report_d4.csv"
    assert csv_path.exists()
    assert csv_path.read_text().startswith("shape_id,condition,")


def test_search_determinism_across_workers(tmp_path, capsys):
    outputs = []
    for workers, sub in (("1", "a"), ("8", "b")):
        rdir = tmp_path / sub
        rdir.mkdir()
        code, out, _ = run(capsys, "search", "--d", "6", "--bound", "80",
                           "--workers", workers, "--report-dir", str(rdir))
        assert code == 0
        outputs.append((out, (rdir / "family_report_d6.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_search_rejects_workers_below_one(tmp_path, capsys):
    for workers in ("0", "-4"):
        code, out, err = run(capsys, "search", "--d", "4", "--bound", "30",
                             "--workers", workers, "--report-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert f"workers must be at least 1, got {workers}" in err
    assert not (tmp_path / "family_report_d4.csv").exists()


def test_search_rejects_bound_at_q_limit(tmp_path, monkeypatch, capsys):
    # 1,048,589 > 2**20 is prime and 5 (mod 8): the bound must be refused
    # before any prime is swept, not when its class table is built
    from cyclodes import search

    def unreachable(*args, **kwargs):
        raise AssertionError("swept primes past the bound check")

    monkeypatch.setattr(search, "exhaustive_search_many", unreachable)
    for bound in ("1048576", "1048700"):
        code, out, err = run(capsys, "search", "--d", "4", "--bound", bound,
                             "--report-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "2**20" in err
    assert not (tmp_path / "family_report_d4.csv").exists()


def test_search_rejects_format(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--d", "4", "--bound", "30", "--format", "csv",
                  "--report-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "family_report_d4.csv").exists()


def test_serial_cli_does_not_load_process_pool():
    import subprocess
    import sys
    probe = ("import sys, cyclodes.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env={"PYTHONPATH": ":".join(sys.path)})
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "8221", "--order", "12"),
    ("verify", "--q", "8221", "--order", "12", "--condition", "x1"),
    ("verify", "--q", "8221", "--order", "4"),
    ("verify", "--q", "8237", "--order", "4", "--condition", "t1"),
    ("sequence", "--q", "8221", "--order", "12", "--recipe", "A,E"),
    ("sequence", "--q", "8237", "--order", "4", "--recipe", "0,1,2"),
])
def test_oracle_commands_reject_q_at_limit(monkeypatch, capsys, argv):
    # valid primes past 2**13: refused before any table or oracle count
    from cyclodes import adsets, cyclotomy, seqkit

    def unreachable(*args, **kwargs):
        raise AssertionError("reached a table or oracle past the q check")

    monkeypatch.setattr(cyclotomy, "build_classes", unreachable)
    monkeypatch.setattr(seqkit, "autocorrelation", unreachable)
    monkeypatch.setattr(adsets, "difference_function", unreachable)
    monkeypatch.setattr(seqkit, "difference_function", unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "2**13" in err
    assert cli.ORACLE_Q_LIMIT == 2 ** 13


def test_sequence_q13(capsys):
    code, out, _ = run(capsys, "sequence", "--q", "13", "--order", "12",
                       "--recipe", "A,E")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 26 and obj["weight"] == 12
    assert obj["levels"] == {"-2": 18, "2": 7, "26": 1}
    assert obj["ac_identity"] is True


def test_sequence_csv_format(capsys):
    code, out, _ = run(capsys, "sequence", "--q", "13", "--order", "12",
                       "--recipe", "A,E", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "tau,ac"
    assert out.splitlines()[1] == "0,26"


def test_sequence_unknown_recipe(capsys):
    code, _, err = run(capsys, "sequence", "--q", "13", "--order", "12",
                       "--recipe", "A,Z")
    assert code == 2
    assert "unknown order-12 recipe" in err


def test_sequence_order4(capsys):
    code, out, _ = run(capsys, "sequence", "--q", "29", "--order", "4",
                       "--recipe", "0,2,3")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 58 and obj["weight"] == 28


def test_output_file(tmp_path, capsys):
    target = tmp_path / "classes.json"
    code, out, _ = run(capsys, "classes", "--q", "13", "--d", "4",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["q"] == 13


def test_cache_env_is_ignored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CYCLODES_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "cycnums", "--q", "37", "--d", "12")
    assert code == 0 and json.loads(out)["q"] == 37
    assert list(tmp_path.iterdir()) == []
