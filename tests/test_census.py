"""The balanced order-12 census to 2**20, pinned: the full sha256 of the
stdout of `search --d 12 --bound 1048575` and of family_report_d12.csv, in
both zero variants.  The digests were recorded from the dense-grid sweep that
the sorted join replaced, so they catch any drift in the census output.

Opt in with CYCLODES_CENSUS=1.  Each variant runs on two workers, since the
output is byte-identical at any worker count; on a 2-vCPU machine each takes
about 40 s, and 70 s on one worker.
"""

import hashlib
import os

import pytest

from cyclodes import cli

pytestmark = pytest.mark.skipif(not os.environ.get("CYCLODES_CENSUS"),
                                reason="set CYCLODES_CENSUS=1 to run")

# (stdout, family CSV) sha256 per include_zero
CENSUS_D12 = {
    False: ("22e22f43ad9ce69c314ca810fdb4e6420dfc652462c4fc7b3dafd4d5f9f08020",
            "762695d9cf93ed9dc5317710da53306bbf2f01e49947e304e98bed9ef36317fb"),
    True: ("dc23b9a45e9abcb91eb45c8ed16a5af5e48ae9ec51642bcf56892e6548eac90b",
           "2d29077ec5d1e323e8902b2b9f8353d2f6d2ee478505d152ffeb2a29ddc913d1"),
}


@pytest.mark.parametrize("include_zero", [False, True])
def test_order12_census_to_2_20_is_unchanged(tmp_path, capsys, include_zero):
    argv = ["search", "--d", "12", "--bound", "1048575", "--workers", "2",
            "--report-dir", str(tmp_path)] + ["--include-zero"] * include_zero
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    csv = (tmp_path / "family_report_d12.csv").read_bytes()
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(csv).hexdigest()) == CENSUS_D12[include_zero]
