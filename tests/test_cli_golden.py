"""Golden outputs: every README command-line example, plain and ``--json``,
and the full n = 4 knot search.

Each case pins the exit code and the SHA-256 of stdout, so any change in
what a documented command prints shows up here byte for byte.
"""

import hashlib
from importlib import resources

import pytest

from flatbasket.cli import cli_dispatch

VALLEY = str(resources.files("flatbasket") / "data" / "diagrams" / "valley.txt")

EXAMPLES = {
    "alexander": ["alexander", "--code", "1,2,3,4,1,2,3,4"],
    "invariants": ["invariants", "--code", "(1,2,4,3,1,2,4,3)"],
    "stats": ["stats", "--code", "1,2,1,2"],
    "matrix": ["matrix", "--code", "1,3,1,2,3,2"],
    "bound": ["bound", "--code", "1,2,3,5,6,4,5,6,1,2,3,4", "--genus", "1"],
    "passclass": ["passclass", "--code", "1,2,3,4,1,2,3,4"],
    "orbit-check": ["orbit-check", "--matching", "1,2,1,2"],
    "flatten": ["flatten", "--diagram", VALLEY, "--trace"],
    "search": ["search", "-n", "4", "--target", "t^2 - t + 1", "--knots-only"],
    "census": ["census", "-n", "4"],
    "verify-table": ["verify-table"],
    "search-knots": ["search", "-n", "4", "--knots-only"],
}

# (example, json) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("alexander", False): (0, "ceefbcd7542c5957bd7aebfc8682e0fcc1b2db08bf511f6b992d03ca91547336"),
    ("alexander", True): (0, "b9577653abe25bd20712b33a560825f88587316ac8a57c822e73e445e6b58825"),
    ("invariants", False): (0, "297976c1f553c252316d6a34a2a877308e21547ae032b3822a086ab8475eabb9"),
    ("invariants", True): (0, "9c45c89113be3b914468b3b3a33032f0891ebe34e08df0701ba5241ea6408791"),
    ("stats", False): (0, "1996c51a6ff9149e5cf14b312e4a30038679a78e97ffa080503b65820f7c19ae"),
    ("stats", True): (0, "25edfc3cf4db47d8284060d7d11890456e47718930db7e7d3783945900cc8bc3"),
    ("matrix", False): (0, "66367768ea9ea8d21140ccd19202f60c64528ea64d9f97bd4b3fd6ccfa755616"),
    ("matrix", True): (0, "8a781417b0639eee080c36115fcf181580cf14968b4e4f183482bbc4132bdb4c"),
    ("bound", False): (0, "0bc322478363fe104d7fb3be92031951fa16636d086f5b1c0f7d5ca5e8dbd196"),
    ("bound", True): (0, "b97a14d3c61a2ad7737352a88b5b3de80a57ce0c34e96e490c1dce896a5176c0"),
    ("passclass", False): (0, "5c272e9ac6abcf98cb061f3191ab1db01db91aa7db7dccfe44e16745ac03e141"),
    ("passclass", True): (0, "2c62cd106cd42776219304713064de7d609a0fadd4849900c81745e21c1d8990"),
    ("orbit-check", False): (0, "78e133affc4e166db8197ec4321a8c63016f251522a3e698e929105269b07cc6"),
    ("orbit-check", True): (0, "41a656dd17ffbd2001e03a2fb4efeaae1c3bd3cee8d37e607944bd56416b97f0"),
    ("flatten", False): (0, "21a634f125e83af37777a4a5c305d9cc5099da0d252107d4dfb032c9d818bb2f"),
    ("flatten", True): (0, "e10c6ea70f2f48d08a0e1a36b3469599082401e4a0bcde7281587324defe1540"),
    ("search", False): (0, "76afff22b9b06ad72a9c331aad0830c75d6b7e22fb3c0650a7a0180cecb7ccf8"),
    ("search", True): (0, "28faee87795f00b007b8df09e7fb013a3f82226a1704297e24b202e62508581c"),
    ("census", False): (0, "59756a797a59e4b6d1ff63bff05861ce89bae24b903b9cd26d0c931c7d096e5a"),
    # census -n 4 --json: every canonical knot code with 4 bands
    ("census", True): (0, "15e4ebd9a042b081bd74ed65e386175a21c828311f953bf6f8ac3f30eb12b5b2"),
    ("verify-table", False): (0, "a667a8ad2a4c37167f6ee0215abb46795b72c011623be977a82ac90d28ee249a"),
    ("verify-table", True): (0, "839b43924939692b41c25fae736a757b840b1e23d13d145f368d08576bfafaab"),
    ("search-knots", True): (0, "5b85e29c6077eb6c9cfac6eba3b2f0c4b551d9e8d884d24d14b117668803f753"),
}


@pytest.mark.parametrize(
    "name, as_json",
    sorted(GOLDEN),
    ids=[f"{name}{'-json' if as_json else ''}" for name, as_json in sorted(GOLDEN)],
)
def test_readme_example_output(capsys, name, as_json):
    argv = EXAMPLES[name] + (["--json"] if as_json else [])
    status = cli_dispatch(argv)
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[(name, as_json)]
