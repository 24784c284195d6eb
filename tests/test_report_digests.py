"""Reports stay byte-identical: the sha256 of each ``build`` document and of
the ``verify --report`` and ``analyze --report`` files it leads to, with the
exit codes, on type 2 chains m = 1..4, the three built-in spheres and the
Kummer grids 2 x 2 and 4 x 6.  A change to any of these bytes is a change
to the program's output and has to be made on purpose."""

import hashlib

import pytest

from k3motive.cli import main

BUILDS = {
    "type2-m1": ["type2", "--m", "1"],
    "type2-m2": ["type2", "--m", "2"],
    "type2-m3": ["type2", "--m", "3"],
    "type2-m4": ["type2", "--m", "4"],
    "tetrahedron": ["type3", "--triangulation", "tetrahedron"],
    "octahedron": ["type3", "--triangulation", "octahedron"],
    "icosahedron": ["type3", "--triangulation", "icosahedron"],
    "kummer-2x2": ["kummer", "--m1", "2", "--m2", "2"],
    "kummer-4x6": ["kummer", "--m1", "4", "--m2", "6"],
}

# (exit code, sha256) of the build document, the verify report and the
# analyze report
DIGESTS = {
    "icosahedron": (
        (0, "47f12787d1b4726b6ede00dcf785fd49059a1c2a3c558c0118513d2de205c287"),
        (0, "d327e6b04270e5e4ec3677e92da87de52facc80e0e6defc4fdda915696515689"),
        (0, "598bf5673f6c55d5caeb681f169507e21573d19979ee58b85d913b6c658c8d26"),
    ),
    # rational components, a = 4 and 7: the analyze reports read type 3
    # and chi 24
    "kummer-2x2": (
        (0, "ccb1b1a2fa929c3252f86add4a4f94d66679c12c3f1806a7a6d40624a7ac4f1c"),
        (0, "726b67f57e935200b02c46ba6a6201b8d6fd4847e82689c8f23d6624420d73fb"),
        (0, "1577ebf9055d30e274f5cffd159d227380710625d381d90998e5559544e4710c"),
    ),
    "kummer-4x6": (
        (0, "98ab91983474459afb6baabd366250298afc7433b50e48e00a892966a6061b1c"),
        (0, "692a13e66e6d496d08dd7d8cf76037f4228332659205b4aaf9024c55fedf48a5"),
        (0, "fd85e71eceebe9033f535784a46c29f78db4860c69189435aa1bb84bb3f5e8b0"),
    ),
    "octahedron": (
        (0, "bbf69fcee4be3bc0d48de1dfa9a30cfd380b1da94792e3a774a1b735e2a05faf"),
        (0, "637cba60d6f64c7bb562e31e1dfdb22b5ba1e515bf9bca6497c4f891181fb3a0"),
        (0, "fc252eba9e5b04b67bfb27387b34bd574f8da30f30988133691fb7a66ca03f81"),
    ),
    "tetrahedron": (
        (0, "dc8a106ef1998139344c0f5b7ab906a0c2a0c310de7639b5c7d807ce33e4b356"),
        (0, "a03d45bdaab4c0ea0d412fe983dddea9a8c6d50a3cd53e23b7d2433b7fdb5d46"),
        (0, "8d0d8ed182ae0cd116903d744e5c3e32e760aa65d6aa4564f12bbee458877537"),
    ),
    "type2-m1": (
        (0, "7d6a3099e66c2cea55cf8539b104dc6985f9dc9b7f87b123d3822cff3a1e76bc"),
        (0, "367a1f9c69557a995425287d4870bbcb54148089fb303d75d82b4ba0c10889c5"),
        (0, "1757bbffb82b808d72f5f728e21ce38f9c734c51951b06d85b76b7db0ae953af"),
    ),
    "type2-m2": (
        (0, "2f00bf2f44c1da4ad792294e1936417883227c0b01f72f9ee4607f4232e82623"),
        (0, "1a34b44c1f9949945f3954b5fa8e0bb2441f73eb25c3f54a2fc6115cece6dc88"),
        (0, "f73774b9993f2acc27fae0e235209b31f5ae5d8ce67c795242041d357fda8278"),
    ),
    "type2-m3": (
        (0, "52e18b9ede7d24faf054b5f20d05480c6f453771dfabff7415a62220715020b1"),
        (0, "471e270adde24779c8a1b155cd1bb7b796675675dc3ecdf461a4a8caa4b4b4c5"),
        (0, "f73452585b04f850b94a75e1c9103c75d3430062ab0c64caeedd24bb6966fcca"),
    ),
    "type2-m4": (
        (0, "7e14b372ba69135d9b98a9a8f1d499de5fc619d4f67cd62f614b0e6c305dd997"),
        (0, "349a8e5cba6dbd70e5f7d2bb003abd5d2d1040d3a2cd846454a8651b11f23c49"),
        (0, "8b4c93a67ca22c00572e0585aca1510a7d0a02c59c2d9ff6321cbb011375cfa0"),
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_report_digests(tmp_path, capsys, name):
    doc, verified, analyzed = (tmp_path / "doc.json", tmp_path / "verify.json",
                               tmp_path / "analyze.json")
    got = (
        (main(["build", *BUILDS[name], "-o", str(doc)]), _sha256(doc)),
        (main(["verify", str(doc), "--report", str(verified)]),
         _sha256(verified)),
        (main(["analyze", str(doc), "--report", str(analyzed)]),
         _sha256(analyzed)),
    )
    capsys.readouterr()
    assert got == DIGESTS[name]
