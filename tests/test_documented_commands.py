"""The commands that README's "Command line" section documents, pinned by output.

Every `stcores ...` line of the section's shell blocks runs through `main`,
and the sha256 of its stdout must equal the digest recorded here. A leading
`NAME=value` assignment sets that environment variable for the call. The
`verify` lines are left to tests/test_acceptance.py, which pins every suite's
report. A documented command that is added, dropped or changed without its
digest fails here, as does any change to what one prints.
"""

from hashlib import sha256
from pathlib import Path
import shlex

import pytest

from stcores.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

DIGESTS = {
    'stcores count -t 16 --variant selfconj -N 20': (
        "6f778ada53ca2f642333dc5bfffc191bf3bd9409dc1fb6ae3fe2b55a399b5136"
    ),
    'stcores count -t 3 -s 2 --format json': (
        "726ae16b58873deabc6aa8c6b0eb7eec98dcb9fa56485fe003a94ebab199f84d"
    ),
    'stcores series --gf psi -s 2 -t 3 -N 5': (
        "578e93d3dbbeb5ea8f8099fff0dbfea147572bfea7122798c3cf2abd3037c9a5"
    ),
    'stcores series --gf barcore -t 7 -N 30 --format json': (
        "5328acda691ab95ee662d23b028d068f8792ec561bebd4ff02016ed495692570"
    ),
    'stcores grid --kind anderson -s 7 -t 11': (
        "6559a2c41c4a810da67c96ce267c9fbf85bda67efebadf7072951028ef5be46c"
    ),
    'stcores grid --kind dh -s 4 -t 5': (
        "1a98e285ca29c297d5a1c6f9d5df105693889418f31606c2b7d40d6fec321273"
    ),
    'stcores grid --kind yinyang -s 3 -t 5': (
        "08f03f6f2c1f7c189b893178af8ba64ce077ed6d817deab27fbc8851ef95a24e"
    ),
    "stcores bijection --map gamma -s 7 -t 11 --input '[3,3,3]'": (
        "e098f5437e6e12608e02d2f3a04fd9e8033e6109096be058049781060d76dbce"
    ),
    'stcores bijection --map zeta-inverse -t 3 --input \'{"kind":"bar","parts":[4,1]}\'': (
        "1c99ba6c65d347e456aebe57901ffdcc7c8da4b52a3f03462d5261481b613dd0"
    ),
    'stcores scan --gf barcore -t 5 --mod 2 -g 5 -N 60': (
        "ebb1418cbcb2c78cb05075065cee24b7133b2ab0d6cb436cba7524e38f8450fe"
    ),
    'STCORES_TRUNCATION=30 stcores series --gf core -t 5': (
        "c1e6da90106af3c4dce9c1e93c9977179f85407b4c0629c196ab97d7d4818a4c"
    ),
}


def documented_commands() -> list[str]:
    """Each `stcores` line of the section's shell blocks, comment dropped."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if "stcores" in words:
                commands.append(shlex.join(words))
    return commands


def test_every_documented_command_but_verify_has_a_digest():
    commands = documented_commands()
    assert {c for c in commands if "verify" not in shlex.split(c)} == set(DIGESTS)
    assert len(commands) == len(DIGESTS) + 1


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_documented_command_prints_its_pinned_output(command, capsys, monkeypatch):
    words = shlex.split(command, comments=True)
    monkeypatch.delenv("STCORES_TRUNCATION", raising=False)
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    assert words[0] == "stcores"
    main(words[1:])
    out, err = capsys.readouterr()
    assert err == ""
    assert sha256(out.encode()).hexdigest() == DIGESTS[command]
