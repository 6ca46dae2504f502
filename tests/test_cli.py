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


def test_cycnums_check_m1_fails_on_a_corrupted_matrix_row(monkeypatch, capsys):
    # (0,9)_12 predicted one too high: still a nonnegative integer, so only the
    # comparison with the counted table can catch it
    from cyclodes import cyclotomy

    row = cyclotomy.M1_MATRIX[0, 9]
    monkeypatch.setitem(cyclotomy.M1_MATRIX, (0, 9), row[:5] + (row[5] + 144,))
    code, out, err = run(capsys, "cycnums", "--q", "13", "--d", "12", "--check-m1")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("check failed: ")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cycnums_equality_check_fails_on_a_swapped_row(monkeypatch, capsys, fmt):
    # two cells of row 1 swapped: the total and the row sums still hold, but
    # (h,k) = (-h, k-h), which maps row 1 to row 11 (and row 0 to itself),
    # does not
    from cyclodes import cyclotomy

    count = cyclotomy.cyclotomic_numbers

    def swapped(sys_):
        table = count(sys_).copy()
        k1, k2 = int(table[1].argmin()), int(table[1].argmax())
        table[1, [k1, k2]] = table[1, [k2, k1]]
        return table

    monkeypatch.setattr(cyclotomy, "cyclotomic_numbers", swapped)
    code, out, _ = run(capsys, "cycnums", "--q", "37", "--d", "12", "--format", fmt)
    assert code == 1
    if fmt == "csv":
        assert out.endswith("# total_is_q_minus_2: PASS\n# row_sum_identity: PASS\n"
                            "# equality_table: FAIL\n")
    else:
        assert json.loads(out)["checks"] == {"total_is_q_minus_2": True,
                                             "row_sum_identity": True,
                                             "equality_table": False}


def test_cycnums_d2(capsys):
    code, out, _ = run(capsys, "cycnums", "--q", "13", "--d", "2")
    assert code == 0
    counts = json.loads(out)["counts"]
    assert sum(map(sum, counts)) == 11


def test_cycnums_rejects_order_past_table_limit(monkeypatch, capsys):
    # a (m,n)_d table of d = q - 1 near 2**20 would need 8 TiB: the order is
    # refused before anything is counted
    from cyclodes import cyclotomy

    def unreachable(*args, **kwargs):
        raise AssertionError("counted past the order check")

    monkeypatch.setattr(cyclotomy.np, "bincount", unreachable)
    code, out, err = run(capsys, "cycnums", "--q", "1048573", "--d", "1048572")
    assert code == 2 and out == ""
    assert err == ("error: d=1048572 is too large for the (m,n)_d table: "
                   "d must be at most 2**10\n")


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


@pytest.mark.parametrize("q", [13, 229])
def test_verify_auto_passes_at_y_primes(capsys, q):
    # with (0,0) a y family lists only the parity-pattern-second slot order,
    # the one the calibrated family passes in
    code, out, _ = run(capsys, "verify", "--q", str(q), "--order", "12",
                       "--condition", "auto")
    assert code == 0
    zero = [r for rep in json.loads(out) for r in rep["recipes"] if r["include_zero"]]
    assert len(zero) == 4
    assert all(r["J"] in ([0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11]) for r in zero)


# sha256 of "exit code\nstdout stderr" of verify --order 4 at conditions auto,
# t1, tm1 and s1 in turn, per (q, format); recorded before the t fit moved
# from list matching to the gate table.  The q = 37 pins were re-recorded
# when t's sign came from the congruence that pins y: calibrated_sign went
# from None to 3, as order 12 prints at q = 37, and nothing else changed.
VERIFY_ORDER4_DIGESTS = {
    (5, "json"): "fdd85e030a6db243a911eb27159664f4dd2bca32e611f779be2085dd1b140f42",
    (5, "text"): "5372f7ebd719173dbbd30633c8662f4456e11b875d40705a10c1592c56bfd782",
    (13, "json"): "a80768fbe6633618ca3f8727d87fd8a299920ff8b0bbc9e66ceff9f2f424eead",
    (13, "text"): "7255ffdd78225690c46f7c3fe13feae0560aaa2579dac246ce4f1075b54929d3",
    (29, "json"): "b617e9c1df2ab84802dc3a31f828d879b45076558998ef606bc95a88c8a0b218",
    (29, "text"): "4871376a7872a038ce57c105c5b0222d827361468407ae70897588531512632a",
    (37, "json"): "08a0308baea9fbe98554d9ecbc2111b0f10c143e75785ab5907e1db975c1d40e",
    (37, "text"): "62005b08becbe809c02b5d4bd960dbd8c27b02b2fe7bae4bf104a8d875e3345b",
    (61, "json"): "d0974f16fc6feeaf7532c534172ad7ba28d35769d1d40bcd57000d5bfd979f9f",
    (61, "text"): "d0974f16fc6feeaf7532c534172ad7ba28d35769d1d40bcd57000d5bfd979f9f",
}


@pytest.mark.parametrize("q, fmt", sorted(VERIFY_ORDER4_DIGESTS))
def test_verify_order4_output_matches_reference(capsys, q, fmt):
    import hashlib
    digest = hashlib.sha256()
    for cond in ("auto", "t1", "tm1", "s1"):
        code, out, err = run(capsys, "verify", "--q", str(q), "--order", "4",
                             "--condition", cond, "--format", fmt)
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == VERIFY_ORDER4_DIGESTS[(q, fmt)]


# sha256 of "exit code\nstdout stderr" of verify --order 12 at conditions auto,
# x1, y1a, y1b, ym1a and ym1b in turn, per (q, format); recorded before the
# order-4 and order-12 recipe types and builders became one.  The q = 733 and
# 1093 pins, where the difference count spans several blocks of shifts, were
# recorded from the int64 bincount of every member difference.
VERIFY_ORDER12_DIGESTS = {
    (13, "json"): "68db88c40d7a83d05e4441c6139877d3d8995a2395b8705721cd6e4f16a56999",
    (13, "text"): "52ac3ef047386ac74765da3c3e2fd33bb98d610deb54d971fe4c85483a0c89ec",
    (37, "json"): "9f412b56400c30a6635eae9dc285d3c0f855ca25644cbfe614fd77a29cde98b4",
    (37, "text"): "a9fd3eeab328c19d6d17e2831cdc92db405433d4e423a3fd500e2abd6b7ce0fe",
    (229, "json"): "f84f86c08614fe3af684b9a7e1c233f6746aa22683001a03d34b9b2349d154a6",
    (229, "text"): "579378c5bfb074005a8e2742cbbc16527354d2a8c972c15eb4ccc489fc8073d5",
    (733, "json"): "1e1b7be5cfef6fe41955183719c43da6d4acf5b214cb5a3b23db53c4bbe46e99",
    (733, "text"): "e0284d23ff06c0a3904eebe186d815c4f42ebf46aaa2b67c8bd096fab301501b",
    (1093, "json"): "03436c1309eb0230a3aa9734d811a15a707ae477eb9f80805ac9c15c8816ef69",
    (1093, "text"): "48ce5286203de2f11522c45c78605853e9ec2759e6ec0bbaba2a26b7e0816838",
}


@pytest.mark.parametrize("q, fmt", sorted(VERIFY_ORDER12_DIGESTS))
def test_verify_order12_output_matches_reference(capsys, q, fmt):
    import hashlib
    digest = hashlib.sha256()
    for cond in ("auto", "x1", "y1a", "y1b", "ym1a", "ym1b"):
        code, out, err = run(capsys, "verify", "--q", str(q), "--order", "12",
                             "--condition", cond, "--format", fmt)
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == VERIFY_ORDER12_DIGESTS[(q, fmt)]


def test_verify_order12_auto_below_oracle_limit_matches_reference(capsys):
    """verify --condition auto in json at q = 8101, just below ORACLE_Q_LIMIT:
    many blocks of shifts and a ragged last one; recorded with the q = 1093 pins."""
    import hashlib
    code, out, err = run(capsys, "verify", "--q", "8101", "--order", "12",
                         "--condition", "auto", "--format", "json")
    digest = hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest()
    assert digest == "96cc9d146356348a2a18a530b5e420273787924f01d5685f12b349e9bfc5fb1f"


# sha256 of "exit code\nstdout stderr" of sequence plain then --include-zero,
# each in json, csv and text, per (q, order, recipe): A,E and one named recipe
# of each order-12 family, and an order-4 triple; recorded with the verify pins.
# The q = 733 and 1093 pins, where the sequence spans many blocks of shifts,
# were recorded from the pure-Python autocorrelation loop.
SEQUENCE_DIGESTS = {
    (13, 12, "A,E"): "22e805f24029e48a860db4e97d343f2a45fd0ea1b638da2c68febabacbdaaede",
    (13, 12, "A,C"): "65e8a0e264a2c68744b192b516a400d6c7a5d221fce5d3a082fd5042db375eeb",
    (13, 12, "A,F"): "b51309f4f0996b532bf9aa4f648523c8ee6d0972386e9aef55af41b804cd696d",
    (13, 12, "C,E"): "bfaa2ee943e204711bb5b6e79010247067d860c62d2b49034a6ba3ba8cb9d8fe",
    (13, 12, "B,E"): "7c45d8ccb96b4c411a5c311a69d14aca717bd93cae8a77b899876b3691f5e559",
    (13, 12, "C,F"): "650dce7dbecf765360bb25ba70a676255aa6998a6a7b9812d7350f8e9eb508a8",
    (37, 12, "A,E"): "81a740ce8965a83eacd7bef6a792a6d25c6187dc47e3a84c9f3750e9bc066446",
    (37, 12, "A,C"): "ccf9163f04314dfc06e0ceeea4a6842afa417ed1c3ad025ea6c9ae3f8e58e6b1",
    (37, 12, "A,F"): "69f71c6e9e9aa5583b2c5bc2c08a5b4032c142454be50a60bddfa8a5a0ae91ce",
    (37, 12, "C,E"): "70368e0bb184f994fa3b76c1924160a754bf175e89056b91200b7e6de5389fff",
    (37, 12, "B,E"): "060e5671624e3c1df2a4da3f3d16e49cb3b5282c71305645afdb868cbeeb44d7",
    (37, 12, "C,F"): "c2611a859975d6a21e30b8752ddb8b1d55701edaa335fe3a19093720c523965e",
    (29, 4, "0,2,3"): "f9517a95ad62d493608bf984cdac54912996fb22026292d508a54b03ca0b8f3d",
    (733, 12, "A,E"): "1e624ed76a7deb7aa3fd77a2fc6e1a7db2c3e38c0072a93aa27eae3161675f0a",
    (1093, 12, "B,F"): "54be7e37737a337579221e7f8c09bb35860bc17f22a59a73c68cb6896e15f6ed",
}


def sequence_digest(capsys, q, order, recipe, formats=("json", "csv", "text")):
    import hashlib
    digest = hashlib.sha256()
    for zero in ((), ("--include-zero",)):
        for fmt in formats:
            code, out, err = run(capsys, "sequence", "--q", str(q), "--order", str(order),
                                 "--recipe", recipe, "--format", fmt, *zero)
            digest.update(f"{code}\n{out}{err}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("q, order, recipe", sorted(SEQUENCE_DIGESTS))
def test_sequence_output_matches_reference(capsys, q, order, recipe):
    assert sequence_digest(capsys, q, order, recipe) == SEQUENCE_DIGESTS[(q, order, recipe)]


def test_sequence_json_matches_reference_near_the_limit(capsys):
    # json alone at the largest prime below 2**13 with q = 13 (mod 24),
    # recorded from the pure-Python autocorrelation loop
    assert sequence_digest(capsys, 8101, 12, "A,E", ("json",)) == \
        "afc7b142afe811b9d04a9f355249cdb0ac8e53cc6ae0e74bb6e758c4435b1375"


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
    (29, 4, 1, {"build_classes": 1, "cyclotomic_numbers": 1, "resolve_signs": 1}),
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
    named = dhm.CONDITIONS[order]
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


def test_search_summary_counts_the_primes_instead_of_listing_them(tmp_path, capsys):
    code, _, err = run(capsys, "search", "--d", "4", "--bound", "40",
                       "--report-dir", str(tmp_path))
    assert code == 0
    note, summary = err.splitlines()
    assert note == f"family report written to {tmp_path / 'family_report_d4.csv'}"
    assert json.loads(summary) == {"d": 4, "include_zero": False, "n_primes": 4,
                                   "first_prime": 5, "last_prime": 37, "n_hits": 40,
                                   "n_families": 4, "n_sporadic_shapes": 0}


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


# sha256 of the hit JSONL (stdout) and of the family CSV per (d, bound,
# include_zero), as recorded in perfbench/workloads.py::SEARCH_REFERENCE
SEARCH_DIGESTS = {
    (12, 400, False): ("8eed9a132ca4b5493583d08ea4ab9ba51a87e1a0d6dab1842c33a019aab5d5d1",
                       "3fa5d60ddfc1125d74e026b9b499083379a95af9c8ecb92e9268025db517e26e"),
    (12, 400, True): ("49eb6ffbfc70644d30179ceddcc1652e97fd2f66be68cc3d2f09c041ad93310a",
                      "e442b9075d80fcdb2c89d8d7d99e1908679ec4af7a2b23a2f17e9aebe3c7fdee"),
    (4, 300, False): ("3894199541dd38916efc93075811e3ea2e89d9702ea3411f3f6f3306c63df208",
                      "3d62342b7911fd08510f0ed341b414119fef3a56925bedfa7ad41bc313ea4b28"),
    (4, 300, True): ("ffad5dd1a196889ef79806f642c8cb3a04e6db7059656bf49ef0e731493a5cc9",
                     "04ddb557ccc57ad0e224bec966f1cea1f8cf2d0c9fe14968b169863d9bc84a31"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("d, bound, include_zero", sorted(SEARCH_DIGESTS))
def test_search_output_bytes_match_reference(tmp_path, capsys, d, bound,
                                             include_zero, workers):
    import hashlib
    argv = ["search", "--d", str(d), "--bound", str(bound), "--workers", workers,
            "--report-dir", str(tmp_path)] + ["--include-zero"] * include_zero
    code, out, _ = run(capsys, *argv)
    csv = (tmp_path / f"family_report_d{d}.csv").read_text()
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(csv.encode()).hexdigest()) == SEARCH_DIGESTS[(d, bound, include_zero)]


@pytest.mark.parametrize("d, bound, n_primes", [(12, 100, 3), (4, 60, 5)])
def test_search_builds_one_system_per_prime(tmp_path, monkeypatch, capsys,
                                            d, bound, n_primes):
    # the sweep and the family gate of a prime read one class system and table
    from cyclodes import cyclotomy
    counts = count_calls(monkeypatch, cyclotomy, "build_classes",
                         "cyclotomic_numbers", "build_index_table")
    code, _, _ = run(capsys, "search", "--d", str(d), "--bound", str(bound),
                     "--report-dir", str(tmp_path))
    assert code == 0
    assert counts == dict.fromkeys(counts, n_primes)


def test_search_rejects_missing_report_dir_before_sweeping(tmp_path, monkeypatch, capsys):
    from cyclodes import search
    counts = count_calls(monkeypatch, search, "cross_prime_family_report")
    code, out, err = run(capsys, "search", "--d", "4", "--bound", "40",
                         "--report-dir", str(tmp_path / "missing"))
    assert code == 2 and out == ""
    assert err == f"error: --report-dir {tmp_path / 'missing'} is not a directory\n"
    assert counts == {"cross_prime_family_report": 0}


def test_output_into_missing_directory_is_an_error(tmp_path, monkeypatch, capsys):
    # every command checks the directory of --output before any table is
    # built or any prime is swept
    from cyclodes import cyclotomy, search
    counts = count_calls(monkeypatch, search, "cross_prime_family_report")
    counts.update(count_calls(monkeypatch, cyclotomy, "build_classes"))
    target = tmp_path / "missing" / "hits.jsonl"
    for argv in (["search", "--d", "4", "--bound", "40", "--report-dir", str(tmp_path)],
                 ["classes", "--q", "13", "--d", "4"],
                 ["cycnums", "--q", "13", "--d", "12"],
                 ["verify", "--q", "37", "--order", "12"],
                 ["sequence", "--q", "13", "--order", "12", "--recipe", "A,E"]):
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
        assert err == f"error: --output {target}: its directory does not exist\n"
        assert "Traceback" not in err
    assert counts == {"cross_prime_family_report": 0, "build_classes": 0}
    assert not (tmp_path / "family_report_d4.csv").exists()


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

    monkeypatch.setattr(search, "search_each_prime", unreachable)
    for bound in ("1048576", "1048700"):
        code, out, err = run(capsys, "search", "--d", "4", "--bound", bound,
                             "--report-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "2**20" in err
    assert not (tmp_path / "family_report_d4.csv").exists()


def test_search_rejects_bound_below_d_plus_one(tmp_path, monkeypatch, capsys):
    # a bound that admits no q = d*f + 1 is an input error, not an empty report
    from cyclodes import search
    counts = count_calls(monkeypatch, search, "search_each_prime")
    hits = tmp_path / "hits.jsonl"
    for d, bound in ((12, -5), (12, 12), (4, 0), (4, 4)):
        code, out, err = run(capsys, "search", "--d", str(d), "--bound", str(bound),
                             "--report-dir", str(tmp_path), "--output", str(hits))
        assert code == 2 and out == ""
        assert err == f"error: bound={bound} must be at least d + 1 = {d + 1}\n"
    assert counts == {"search_each_prime": 0}
    assert list(tmp_path.iterdir()) == []
    code, _, _ = run(capsys, "search", "--d", "4", "--bound", "5",
                     "--report-dir", str(tmp_path))
    assert code == 0 and (tmp_path / "family_report_d4.csv").exists()


def test_search_rejects_bound_below_first_prime(tmp_path, monkeypatch, capsys):
    # the first f-odd d=8 prime is 41 (9 and 25 are not prime): nothing to sweep
    from cyclodes import search
    counts = count_calls(monkeypatch, search, "search_each_prime")
    hits = tmp_path / "hits.jsonl"
    for d, bound in ((8, 9), (8, 40)):
        code, out, err = run(capsys, "search", "--d", str(d), "--bound", str(bound),
                             "--report-dir", str(tmp_path), "--output", str(hits))
        assert code == 2 and out == ""
        assert err == (f"error: no prime q = {d}*f + 1 with f odd lies at or below "
                       f"bound={bound}\n")
    assert counts == {"search_each_prime": 0}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "13", "--order", "12", "--format", "csv"),
    ("cycnums", "--q", "13", "--d", "12", "--format", "text"),
])
def test_format_without_its_own_output_is_refused(capsys, argv):
    # verify has no CSV and cycnums no text form of its own
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--format" in captured.err


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


def test_import_and_parser_build_no_tables():
    # importing the CLI and building its parser fills none of the layout caches
    import subprocess
    import sys
    probe = ("import cyclodes.cli; cyclodes.cli.build_parser(); "
             "from cyclodes import cyclotomy, dhm; "
             "print([f.cache_info().currsize for f in (cyclotomy.orbit_representatives, "
             "cyclotomy._mirror_index, dhm._subset_members)])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env={"PYTHONPATH": ":".join(sys.path)})
    assert done.stdout.strip() == "[0, 0, 0]"


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


@pytest.mark.parametrize("d, bound, include_zero, n_cases", [
    (12, 13, False, 4), (12, 13, True, 4),
    (10, 11, False, 6), (10, 11, True, 6),
    (4, 37, False, 10), (4, 37, True, 10),
])
def test_every_search_shape_becomes_a_three_level_sequence(tmp_path, capsys, d, bound,
                                                           include_zero, n_cases):
    # each shape_id of the family report, at each prime it passed, is a
    # sequence recipe at its order
    zero = ["--include-zero"] * include_zero
    code, _, _ = run(capsys, "search", "--d", str(d), "--bound", str(bound),
                     "--report-dir", str(tmp_path), *zero)
    assert code == 0
    rows = (tmp_path / f"family_report_d{d}.csv").read_text().splitlines()[1:]
    cases = [(row.split(",")[0], q) for row in rows for q in row.split(",")[3].split()]
    assert len(cases) == n_cases
    for shape_id, q in cases:
        code, out, err = run(capsys, "sequence", "--q", q, "--order", str(d),
                             "--recipe", shape_id, *zero)
        obj = json.loads(out)
        assert (code, err, obj["three_level"], obj["ac_identity"]) == (0, "", True, True), \
            (shape_id, q)


@pytest.mark.parametrize("q, order, named, shape_id", [
    (13, 12, "A,E", "I014589-J02468a"),
    (37, 12, "C,F", "I03478b-J13579b"),
    (29, 4, "0,2,3", "I02-J23"),          # (i, j, l) is I = {i, j}, J = {l, j}
])
def test_shape_id_builds_the_named_recipe(capsys, q, order, named, shape_id):
    for zero in ((), ("--include-zero",)):
        outputs = [run(capsys, "sequence", "--q", str(q), "--order", str(order),
                       "--recipe", recipe, "--format", "csv", *zero)
                   for recipe in (named, shape_id)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("q, order, recipe", [
    (13, 4, "I01g-J0"),            # not an index digit
    (13, 4, "I015-J0"),            # index 5 outside [0, 4)
    (13, 12, "I01c-J012345"),      # index 12 outside [0, 12)
    (13, 4, "I014589-J02468a"),    # an order-12 shape at order 4
    (11, 10, "A,E"),               # named sets are order-12 recipes
    (13, 4, "I01-J0"),             # |I| + |J| = 3, not 4
    (13, 12, "I01234-J012345"),    # |I| + |J| = 11, not 12
    (13, 4, "0,0,1"),              # a triple repeats an index
    (13, 4, "I0011-J23"),          # a shape repeats an index
    (13, 4, "0,1"),                # neither form
    (17, 4, "0,1,2"),              # f = 4 even
    (73, 12, "A,E"),               # f = 6 even
])
def test_bad_recipe_is_a_usage_error(capsys, q, order, recipe):
    code, out, err = run(capsys, "sequence", "--q", str(q), "--order", str(order),
                         "--recipe", recipe)
    assert code == 2 and out == ""
    assert err.startswith(f"error: recipe {recipe!r}: ") and err.count("\n") == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "classes.json"
    code, out, _ = run(capsys, "classes", "--q", "13", "--d", "4",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["q"] == 13


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # main parses every call with one parser per process
    import argparse
    cli.build_parser.cache_clear()
    argv = ("verify", "--q", "37", "--order", "12")
    first = run(capsys, *argv)  # builds the parser
    assert cli.build_parser() is cli.build_parser()

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, *argv, "--include-zero") != first
    assert run(capsys, *argv) == first

    target = tmp_path / "classes.json"
    code, out, _ = run(capsys, "classes", "--q", "13", "--d", "4", "--output", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "classes", "--q", "13", "--d", "4")
    assert code == 0 and out == target.read_text()

    with pytest.raises(SystemExit) as exc:
        cli.main(["cycnums", "--d", "12"])  # no --q
    assert exc.value.code == 2
    assert "--q" in capsys.readouterr().err
    code, out, _ = run(capsys, "cycnums", "--q", "13", "--d", "12")
    assert code == 0 and json.loads(out)["q"] == 13
    assert built == []


def test_cache_env_is_ignored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CYCLODES_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "cycnums", "--q", "37", "--d", "12")
    assert code == 0 and json.loads(out)["q"] == 37
    assert list(tmp_path.iterdir()) == []
