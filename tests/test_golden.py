"""Golden records: the sha256 of the JSON record that ``wrep verify
--rmax 3``, ``center``, ``fibers`` and ``build`` write for rows (1,2,2)
and (2,2,3) at the generic weight.  Kernel work that changes a single
record byte fails here."""

import hashlib

import pytest

from wrep.cli import main

GOLDEN = {
    ("1,2,2", "verify"): "3f0e5b75e4a6417d511112868e568a77fbeba7288f670c10da37e8448ceddf9b",
    ("1,2,2", "center"): "dd6f4a561c96cb5e520a36fa778f4fc87f6b0023278ce14328064d3430a51a27",
    ("1,2,2", "fibers"): "49d4b894228639ed9d273c26205a28b1c8db21c6e7e724aa16724b1598648164",
    ("1,2,2", "build"): "8a9a86ee6f432759b78bc33edb07a0e1bd66fefee3d33a8e23d3003964c70187",
    ("2,2,3", "verify"): "5a430fc89d2470067c70fb9589b9434ce01b88be31337bced4b7cc6d4edc9aab",
    ("2,2,3", "center"): "1dd6319518db79658b488ef1013965663b0d719e5eb5267d8147ec19f151005d",
    ("2,2,3", "fibers"): "0cdefa32760800b241cad96d67b11f1925b8178f9b929e67b858fb2748236732",
    ("2,2,3", "build"): "b9516ac83914df09cceeb7247a94344f42b918e52ef63b2a542752326c3a98d9",
}


@pytest.mark.parametrize("rows, command", sorted(GOLDEN),
                         ids=["%s-%s" % key for key in sorted(GOLDEN)])
def test_record_bytes_are_pinned(tmp_path, rows, command):
    out = tmp_path / "record.json"
    extra = ["--rmax", "3"] if command == "verify" else []
    assert main([command, "--rows", rows, "--out", str(out)] + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(rows, command)]
