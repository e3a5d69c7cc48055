import pytest

from stcores.cli import main


@pytest.fixture
def run(capsys):
    """Call the CLI's `main` on argv words; return (exit code, stdout, stderr)."""

    def call(*args: str) -> tuple[int, str, str]:
        try:
            main(list(args))
            code = 0
        except SystemExit as stop:
            code = stop.code
        out, err = capsys.readouterr()
        return code, out, err

    return call
