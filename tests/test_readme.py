"""README's *Library* block runs as a doctest, closing fence included."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    text = README.read_text()
    head, section = text.split("\n## Library\n", 1)
    section = section.split("\n## ", 1)[0]
    test = doctest.DocTestParser().get_doctest(
        section, {}, "README.md (Library)", str(README), head.count("\n") + 2
    )
    assert len(test.examples) == 6
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
