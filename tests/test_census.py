"""The balanced order-12 and order-4 censuses to 2**20, pinned: the full
sha256 of the stdout of `search --d D --bound 1048575` and of
family_report_dD.csv, in both zero variants.  The order-12 digests were
recorded from the dense-grid sweep that the sorted join replaced, and the
order-4 digests from the classes scattered through a whole int64 power
sequence, before it was made in blocks, and all four before the classes
and the table were made on half of GF(q)*, so they catch any drift in the
census output.

Opt in with CYCLODES_CENSUS=1.  Each variant runs on two workers, since the
output is byte-identical at any worker count; on a 2-vCPU machine the four
take about 165 s together.
"""

import hashlib
import os

import pytest

from cyclodes import cli

pytestmark = pytest.mark.skipif(not os.environ.get("CYCLODES_CENSUS"),
                                reason="set CYCLODES_CENSUS=1 to run")

# (stdout, family CSV) sha256 per (d, include_zero)
CENSUS = {
    (12, False): ("22e22f43ad9ce69c314ca810fdb4e6420dfc652462c4fc7b3dafd4d5f9f08020",
                  "762695d9cf93ed9dc5317710da53306bbf2f01e49947e304e98bed9ef36317fb"),
    (12, True): ("dc23b9a45e9abcb91eb45c8ed16a5af5e48ae9ec51642bcf56892e6548eac90b",
                 "2d29077ec5d1e323e8902b2b9f8353d2f6d2ee478505d152ffeb2a29ddc913d1"),
    (4, False): ("eb75c5aa9344cd4f1714fb6f9d82ed352318b0989a4a96183169ef31869a7ef5",
                 "c59c45891d5e696dcfb8f3ee691606ac937ce718bee5d077ee7b0dd54f56e906"),
    (4, True): ("5547aef8073aec1d42bd9b141f6809292210743902859306d1d841642629bcd8",
                "c1c67c56b9e378f76211c931d89e18fc21d483b5cb6c2d211cc3f8aa5c8e937d"),
}


@pytest.mark.parametrize("d, include_zero", sorted(CENSUS, reverse=True))
def test_census_to_2_20_is_unchanged(tmp_path, capsys, d, include_zero):
    argv = ["search", "--d", str(d), "--bound", "1048575", "--workers", "2",
            "--report-dir", str(tmp_path)] + ["--include-zero"] * include_zero
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    csv = (tmp_path / f"family_report_d{d}.csv").read_bytes()
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(csv).hexdigest()) == CENSUS[d, include_zero]
