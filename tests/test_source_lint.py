"""Determinism (DT) source lint: bit-identity hazard detection.

Unit-tests the AST rules over crafted snippets, the kernel-scope
gating of DT003, the SARIF line anchoring, and — the dogfood test —
that repro's own installed source is DT-clean (the same invariant the
``source-lint`` CI step enforces).
"""

import pathlib
import textwrap

from repro.diagnostics.engine import (
    LintConfig,
    lint_source_paths,
)
from repro.diagnostics.model import Severity
from repro.diagnostics.rules_source import lint_source_text

CONFIG = LintConfig()


def lint(src: str, subject: str = "repro/core/mod.py"):
    return lint_source_text(textwrap.dedent(src), subject, config=CONFIG)


def codes(diags):
    return [d.code for d in diags]


class TestDT001Summation:
    def test_fsum_flagged_anywhere(self):
        diags = lint(
            """
            import math
            total = math.fsum(values)
            """,
            subject="repro/experiments/agg.py",
        )
        assert codes(diags) == ["DT001"]
        assert diags[0].severity is Severity.ERROR
        assert diags[0].index == 3  # line number rides in ``index``

    def test_fsum_alias_resolved(self):
        diags = lint(
            """
            from math import fsum as precise_sum
            total = precise_sum(values)
            """
        )
        assert codes(diags) == ["DT001"]

    def test_np_sum_over_durations(self):
        diags = lint(
            """
            import numpy as np
            total = np.sum(trace.duration[mask])
            """
        )
        assert codes(diags) == ["DT001"]
        assert "pairwise" in diags[0].message

    def test_np_sum_over_other_data_allowed(self):
        diags = lint(
            """
            import numpy as np
            total = np.sum(sizes)
            """
        )
        assert diags == []

    def test_method_sum_over_durations(self):
        diags = lint("total = durations[mask].sum()\n")
        assert codes(diags) == ["DT001"]
        assert "tolist()" in diags[0].message

    def test_left_to_right_convention_allowed(self):
        diags = lint("total = left_to_right_sum(seg[mask].tolist())\n")
        assert diags == []


class TestDT002SetIteration:
    def test_for_over_set_literal(self):
        diags = lint(
            """
            for item in {1, 2, 3}:
                acc += item
            """
        )
        assert codes(diags) == ["DT002"]
        assert diags[0].severity is Severity.WARNING

    def test_comprehension_over_set_call(self):
        diags = lint("out = [f(x) for x in set(items)]\n")
        assert codes(diags) == ["DT002"]

    def test_list_of_set(self):
        diags = lint("out = list(set(items))\n")
        assert codes(diags) == ["DT002"]

    def test_sorted_launders_the_set(self):
        assert lint("for x in sorted({3, 1, 2}):\n    pass\n") == []
        assert lint("out = [f(x) for x in sorted(set(items))]\n") == []

    def test_membership_is_not_iteration(self):
        assert lint("ok = x in {1, 2, 3}\n") == []


class TestDT003KernelPurity:
    def test_wall_clock_in_kernel(self):
        diags = lint(
            """
            import time
            stamp = time.time()
            """,
            subject="repro/netsim/engine.py",
        )
        assert codes(diags) == ["DT003"]
        assert diags[0].severity is Severity.ERROR

    def test_unseeded_numpy_random_in_kernel(self):
        diags = lint(
            """
            import numpy as np
            jitter = np.random.uniform(0, 1)
            """,
            subject="repro/traces/gen.py",
        )
        assert codes(diags) == ["DT003"]

    def test_random_module_alias(self):
        diags = lint(
            """
            import random as rnd
            pick = rnd.choice(items)
            """,
            subject="repro/core/pick.py",
        )
        assert codes(diags) == ["DT003"]

    def test_perf_counter_allowed(self):
        diags = lint(
            """
            import time
            t0 = time.perf_counter()
            """,
            subject="repro/netsim/sim.py",
        )
        assert diags == []

    def test_default_rng_allowed(self):
        diags = lint(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            """,
            subject="repro/core/seeded.py",
        )
        assert diags == []

    def test_non_kernel_files_exempt(self):
        diags = lint(
            """
            import time
            stamp = time.time()
            """,
            subject="repro/service/app.py",
        )
        assert diags == []


class TestDT004MappedWrites:
    def test_memmap_default_mode_flagged(self):
        diags = lint(
            """
            import numpy as np
            cols = np.memmap("trace.bin", dtype="f8")
            """,
            subject="repro/netsim/loader.py",
        )
        assert codes(diags) == ["DT004"]
        assert diags[0].severity is Severity.ERROR

    def test_memmap_writable_mode_flagged(self):
        diags = lint(
            """
            import numpy as np
            cols = np.memmap("trace.bin", "f8", "r+")
            """,
            subject="repro/traces/loader.py",
        )
        assert codes(diags) == ["DT004"]

    def test_memmap_readonly_allowed(self):
        diags = lint(
            """
            import numpy as np
            a = np.memmap("trace.bin", dtype="f8", mode="r")
            b = np.memmap("trace.bin", "f8", "r")
            """,
            subject="repro/traces/loader.py",
        )
        assert diags == []

    def test_mmap_default_access_flagged(self):
        diags = lint(
            """
            import mmap
            m = mmap.mmap(fd, 0)
            """,
            subject="repro/core/maps.py",
        )
        assert codes(diags) == ["DT004"]

    def test_mmap_write_access_flagged(self):
        diags = lint(
            """
            import mmap
            m = mmap.mmap(fd, 0, access=mmap.ACCESS_WRITE)
            """,
            subject="repro/core/maps.py",
        )
        assert codes(diags) == ["DT004"]

    def test_mmap_read_access_allowed_through_alias(self):
        # the store's own idiom: `import mmap as _mmap`
        diags = lint(
            """
            import mmap as _mmap
            m = _mmap.mmap(fd, 0, access=_mmap.ACCESS_READ)
            """,
            subject="repro/traces/colstore.py",
        )
        assert diags == []

    def test_non_kernel_files_exempt(self):
        diags = lint(
            """
            import mmap
            m = mmap.mmap(fd, 0)
            """,
            subject="repro/service/cachefile.py",
        )
        assert diags == []


class TestEngineAndFormats:
    def test_syntax_error_becomes_finding(self):
        diags = lint_source_text(
            "def broken(:\n", "repro/core/broken.py", config=CONFIG
        )
        assert codes(diags) == ["DX000"]
        assert diags[0].severity is Severity.ERROR
        assert "cannot parse" in diags[0].message

    def test_lint_source_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import math\nmath.fsum([1.0])\n")
        (pkg / "good.py").write_text("total = sum([1.0])\n")
        diags = lint_source_paths([tmp_path], CONFIG, root=tmp_path)
        assert codes(diags) == ["DT001"]
        assert diags[0].subject == "repro/core/bad.py"

    def test_selection_covers_dt_prefix(self):
        diags = lint_source_text(
            "import math\nx = math.fsum(v)\nfor i in {1, 2}:\n    pass\n",
            "repro/core/m.py",
            config=LintConfig(select=("DT002",)),
        )
        assert codes(diags) == ["DT002"]

    def test_sarif_carries_line_region(self):
        import json

        from repro.diagnostics.sarif import to_sarif_json

        diags = lint(
            """
            import math
            total = math.fsum(values)
            """
        )
        sarif = json.loads(to_sarif_json(diags))
        result = sarif["runs"][0]["results"][0]
        physical = result["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "repro/core/mod.py"
        assert physical["region"]["startLine"] == 3

    def test_repro_package_is_dt_clean(self):
        """Dogfood: the invariant the source-lint CI step enforces."""
        import repro

        package_root = pathlib.Path(repro.__file__).parent
        diags = lint_source_paths(
            [package_root], CONFIG, root=package_root.parent
        )
        assert diags == [], [str(d) for d in diags]
