"""The repository's own tools, run on small inputs (not on the whole suite)."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_lines_counts_executable_lines_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import math\n"  # 1
        "\n"  # 2
        "# a comment\n"  # 3
        "def outer(x):\n"  # 4
        "    # another comment\n"  # 5
        "\n"  # 6
        "    def inner(y):\n"  # 7
        "        return math.sqrt(y)\n"  # 8
        "    return inner(x)\n"  # 9
    )
    # the nested function's body counts; blank and comment lines do not
    assert load_tool("unreached_lines").executable_lines(source) == {1, 4, 7, 8, 9}
