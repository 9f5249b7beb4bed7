"""Golden records: the sha256 of the JSON record that ``wrep verify
--rmax 3``, ``center``, ``fibers`` and ``build`` write for rows (1,2,2)
and (2,2,3) at the generic weight, of ``build``, ``center`` and ``fibers``
for rows (2,3,3) (the largest jobs of the spectra workload), of ``verify
--rmax 3`` and ``center`` for rows (1,2,2,3) (dimension 512, where the
sparse kernel reuses its product plans most), of ``build``
for rows (2,2,3) at a weight whose denominators 2, 7 and 11 differ and
whose entries are negative, and of ``verify --rmax 4`` and ``center`` at
that weight and ``center`` for rows (2,3,3) at a drawn weight (both split
the basis into Gelfand-Tsetlin classes of uneven sizes), of ``verify
--rmax 4`` for rows (2,3,3) (the
largest relations job of the benchmark), and the exit
status and sha256 of the symbolic commands' records (``noether-demo``,
``leading``, ``galois-check``).  Kernel work that changes a single record
byte fails here."""

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
    ("2,3,3", "build"): "9053c453e1566cadeb99ccf43e11f156a1f4c1306e56a45d694eb8c86c6c2ed1",
    ("2,3,3", "center"): "f00fc3e802338d6457aab3afc9ae3e5370c669b616ab1c5cfeacc3121c5b039e",
    ("2,3,3", "fibers"): "b4d80bc2bf6314ed011e1b6f0bed41adecbfc01bfa799a4fe5fe37869fa50b2e",
    ("1,2,2,3", "verify"): "bfea02123b6d1b2a18a72b87512c507c63e36b3e604f4e2c6ece9060445bcd91",
    ("1,2,2,3", "center"): "c823d10f17b558e993bc56e5ceceb8c510a4288edee6dcb427e9abf7a03c8133",
}


@pytest.mark.parametrize("rows, command", sorted(GOLDEN),
                         ids=["%s-%s" % key for key in sorted(GOLDEN)])
def test_record_bytes_are_pinned(tmp_path, rows, command):
    out = tmp_path / "record.json"
    extra = ["--rmax", "3"] if command == "verify" else []
    assert main([command, "--rows", rows, "--out", str(out)] + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(rows, command)]


def test_largest_verify_record_is_pinned(tmp_path):
    out = tmp_path / "record.json"
    assert main(["verify", "--rows", "2,3,3", "--rmax", "4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "cca30d27fbc677c54d12e49f79a0053082517d58668fac283e275a87e6d80f5e")


def test_build_at_a_weight_over_several_denominators_is_pinned(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[pyramid]\nrows = 2,2,3\n\n[weight]\n"
                      "lambda1 = 3/2, -5/7\nlambda2 = 1/2, -12/7\n"
                      "lambda3 = -1/2, -19/7, 4/11\n")
    out = tmp_path / "record.json"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6d40667b00ef208443cdcaeb2c90ab8302a97f6d3e343ca0497f0af2d4e05182")


# rows (2,3,3) at a weight drawn like the benchmark's: unit row gaps, and
# fractional parts 2/5, 1/7 and 2/3 in the three columns
DRAWN_233 = ("[pyramid]\nrows = 2,3,3\n\n[weight]\n"
             "lambda1 = 12/5, 15/7\nlambda2 = 7/5, 8/7, 5/3\n"
             "lambda3 = 2/5, 1/7, 2/3\n")
SEVERAL_DENOMINATORS = ("[pyramid]\nrows = 2,2,3\n\n[weight]\n"
                        "lambda1 = 3/2, -5/7\nlambda2 = 1/2, -12/7\n"
                        "lambda3 = -1/2, -19/7, 4/11\n")

# (name, config, command line) -> sha256, at weights where the Gelfand-Tsetlin
# characters split the basis into classes of uneven sizes
WEIGHTED = {
    ("2,2,3-verify", SEVERAL_DENOMINATORS, "verify --rmax 4"):
        "b2fb9eeae1e5273ea609f3f9de9d5073e93ac013c7152c3a893d184a621c2dfe",
    ("2,2,3-center", SEVERAL_DENOMINATORS, "center"):
        "fd4bb0d0934c7c7e33baf558ade90248ddef68a36865f097e497deb96261a3f3",
    ("2,3,3-center", DRAWN_233, "center"):
        "85a488436873bcdd02fa35cb119d76a5afec62902f3ea2e51003a4fdbc90e5d1",
}


@pytest.mark.parametrize("case", sorted(WEIGHTED), ids=[c[0] for c in sorted(WEIGHTED)])
def test_record_at_a_drawn_weight_is_pinned(tmp_path, case):
    _, config_text, line = case
    config = tmp_path / "run.ini"
    config.write_text(config_text)
    out = tmp_path / "record.json"
    assert main(line.split() + ["--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WEIGHTED[case]


# command line -> (exit status, sha256); leading (2,2,3) is a known FAIL
SYMBOLIC = {
    "noether-demo": (0, "3f8cdfeec5bd2fb6093f718fb84e6218dc4970a71994ae82d7a4b48a5254909a"),
    "leading --rows 1,2,2": (0, "77f4699da0409fdd748248d9449e37f6520de8936c5af4eafe960eacdfa83695"),
    "leading --rows 2,2,3": (1, "329bc9098ec2c702b51b1707af2ddc3a2944302df4c48d7eeef0d31d1a8370d8"),
    "leading --rows 2,3,3": (0, "ca186b019e2034fab4e5b7470e877e55d7ab9384bd2031f87fefe58391059d3f"),
    "leading --rows 1,2,2,2": (0, "81a9876ec2e0514b0cd130a99158e725afeac6e28e0d1bda3e576bcdf6999b3f"),
    "galois-check --rows 1,2,2": (0, "3d3b44e14b5e456d37d154549885105002a5d8aec4930ba41105de5a83ca604f"),
    "galois-check --rows 2,2,3": (0, "129a937214ce9a840afbf76253e2cac6fa6508668274b2d68020ff3eaa8b5c57"),
    "galois-check --rows 1,2,2,3": (0, "5fb2333b849555e1d0207ec0875fd3c672eecedef67aa3cc1a3a2fc365f425bf"),
}


@pytest.mark.parametrize("line", sorted(SYMBOLIC))
def test_symbolic_record_bytes_are_pinned(tmp_path, line):
    out = tmp_path / "record.json"
    code = main(line.split() + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (code, digest) == SYMBOLIC[line]
