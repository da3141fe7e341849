"""reprolint framework and rule tests.

Every rule is exercised against a seeded violation fixture (proving it
fires) and a compliant twin (proving it stays quiet), suppressions are
tested at line/file/all granularity, the CLI contract (exit codes, JSON
artifact shape) is pinned, and the repository tree itself must lint
clean — the same gate the CI static-analysis job enforces.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import (
    Finding,
    _collect_suppressions,
    all_rules,
    iter_python_files,
    lint_paths,
    lint_source,
    render_json,
)
from repro.devtools.lint.rules import LOCK_ORDER, RULES

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Virtual paths placing fixtures inside each rule's scope.
LIBRARY_PATH = "src/repro/core/fixture.py"
SERVING_PATH = "src/repro/runtime/fixture.py"
SCHEDULER_PATH = "src/repro/serving/scheduler.py"
PACKAGE_PATH = "src/repro/runtime/fixture.py"
STORAGE_PATH = "src/repro/storage/fixture.py"
ANYWHERE_PATH = "benchmarks/fixture.py"


def codes_of(findings):
    return [finding.code for finding in findings]


# ----------------------------------------------------------------------
# Framework basics
# ----------------------------------------------------------------------
class TestFramework:
    def test_registry_has_at_least_eight_rules_with_stable_codes(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert len(rules) >= 8
        assert len(set(codes)) == len(codes)
        assert codes == sorted(codes)
        assert all(code.startswith("RPL") for code in codes)
        assert len(RULES) == len(rules)

    def test_every_rule_has_name_and_description(self):
        for rule in all_rules():
            assert rule.name and rule.name != "abstract-rule"
            assert rule.description

    def test_finding_render_and_json_shape(self):
        finding = Finding(code="RPL001", message="msg", path="a/b.py", line=3, col=7)
        assert finding.render() == "a/b.py:3:7: RPL001 msg"
        assert finding.to_json() == {
            "code": "RPL001",
            "message": "msg",
            "path": "a/b.py",
            "line": 3,
            "col": 7,
        }

    def test_scoped_rule_skips_out_of_scope_files(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes_of(lint_source(source, LIBRARY_PATH)) == ["RPL001"]
        # The same code outside the library scope is legal (e.g. a script).
        assert "RPL001" not in codes_of(lint_source(source, "examples/demo.py"))

    def test_iter_python_files_skips_cache_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.py").write_text("x = 1\n")
        files = list(iter_python_files([str(tmp_path)]))
        assert len(files) == 1
        assert files[0].endswith("pkg/mod.py")


# ----------------------------------------------------------------------
# One seeded violation (and one compliant twin) per rule
# ----------------------------------------------------------------------
class TestRuleViolations:
    def test_rpl001_flags_unseeded_rng_in_library(self):
        bad = (
            "import numpy as np\n"
            "def sample():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.random()\n"
        )
        assert "RPL001" in codes_of(lint_source(bad, LIBRARY_PATH))
        legacy = "import numpy as np\nx = np.random.randn(4)\n"
        assert "RPL001" in codes_of(lint_source(legacy, LIBRARY_PATH))
        stdlib = "import random\nx = random.random()\n"
        assert "RPL001" in codes_of(lint_source(stdlib, LIBRARY_PATH))
        good = (
            "import numpy as np\n"
            "def sample(rng):\n"
            "    return np.random.default_rng(rng).random()\n"
        )
        assert "RPL001" not in codes_of(lint_source(good, LIBRARY_PATH))

    def test_rpl002_flags_wall_clock_in_library(self):
        bad = "import time\ndef f():\n    return time.perf_counter()\n"
        assert "RPL002" in codes_of(lint_source(bad, LIBRARY_PATH))
        sleepy = "import time\ndef f():\n    time.sleep(0.1)\n"
        assert "RPL002" in codes_of(lint_source(sleepy, LIBRARY_PATH))
        # Serving code may read clocks (deadlines are its job).
        assert "RPL002" not in codes_of(lint_source(bad, SERVING_PATH))

    def test_rpl003_flags_close_without_context_manager(self):
        bad = "class Pool:\n    def close(self):\n        pass\n"
        assert "RPL003" in codes_of(lint_source(bad, PACKAGE_PATH))
        good = (
            "class Pool:\n"
            "    def close(self):\n"
            "        pass\n"
            "    def __enter__(self):\n"
            "        return self\n"
            "    def __exit__(self, exc_type, exc, tb):\n"
            "        self.close()\n"
            "        return False\n"
        )
        assert "RPL003" not in codes_of(lint_source(good, PACKAGE_PATH))

    def test_rpl004_flags_resource_without_finalizer(self):
        bad = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class Runner:\n"
            "    def __init__(self):\n"
            "        self._pool = ThreadPoolExecutor(max_workers=2)\n"
        )
        assert "RPL004" in codes_of(lint_source(bad, PACKAGE_PATH))
        good = bad + (
            "    def _net(self):\n"
            "        import weakref\n"
            "        self._fin = weakref.finalize(self, self._pool.shutdown)\n"
        )
        assert "RPL004" not in codes_of(lint_source(good, PACKAGE_PATH))

    def test_rpl005_flags_shared_memory_without_unlink(self):
        bad = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def make():\n"
            "    return SharedMemory(create=True, size=1024)\n"
        )
        assert "RPL005" in codes_of(lint_source(bad, ANYWHERE_PATH))
        good = bad + "def drop(seg):\n    seg.close()\n    seg.unlink()\n"
        assert "RPL005" not in codes_of(lint_source(good, ANYWHERE_PATH))

    def test_rpl006_flags_untyped_serving_raise(self):
        bad = "def f():\n    raise ValueError('bad request')\n"
        assert "RPL006" in codes_of(lint_source(bad, SERVING_PATH))
        typed = (
            "from repro.exceptions import ServingTimeoutError\n"
            "def f():\n"
            "    raise ServingTimeoutError('deadline exceeded')\n"
        )
        assert "RPL006" not in codes_of(lint_source(typed, SERVING_PATH))
        reraise = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except OSError as exc:\n"
            "        raise exc\n"
        )
        assert "RPL006" not in codes_of(lint_source(reraise, SERVING_PATH))
        # Library code is free to raise its own typed errors.
        assert "RPL006" not in codes_of(lint_source(bad, LIBRARY_PATH))

    def test_rpl007_flags_silent_exception_swallow(self):
        bare = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        assert "RPL007" in codes_of(lint_source(bare, ANYWHERE_PATH))
        broad = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
        assert "RPL007" in codes_of(lint_source(broad, ANYWHERE_PATH))
        handled = (
            "def f(log):\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        log.append(exc)\n"
        )
        assert "RPL007" not in codes_of(lint_source(handled, ANYWHERE_PATH))

    def test_rpl008_flags_unpicklable_at_pool_boundary(self):
        lam = "def f(pool):\n    pool.broadcast(lambda x: x, 1)\n"
        assert "RPL008" in codes_of(lint_source(lam, ANYWHERE_PATH))
        nested = (
            "def f(pool, jobs):\n"
            "    def helper(job):\n"
            "        return job\n"
            "    return pool.submit_cached(jobs, fn=helper)()\n"
        )
        assert "RPL008" in codes_of(lint_source(nested, ANYWHERE_PATH))
        module_level = (
            "def helper(job):\n"
            "    return job\n"
            "def f(pool, jobs):\n"
            "    return pool.submit_cached(jobs, fn=helper)()\n"
        )
        assert "RPL008" not in codes_of(lint_source(module_level, ANYWHERE_PATH))

    def test_rpl008_covers_submit_to(self):
        lam = "def f(pool):\n    return pool.submit_to(0, lambda job: job, 1)\n"
        assert "RPL008" in codes_of(lint_source(lam, ANYWHERE_PATH))
        nested = (
            "def f(pool):\n"
            "    def helper(job):\n"
            "        return job\n"
            "    return pool.submit_to(1, helper, None)\n"
        )
        assert "RPL008" in codes_of(lint_source(nested, ANYWHERE_PATH))
        module_level = (
            "def helper(job):\n"
            "    return job\n"
            "def f(pool):\n"
            "    return pool.submit_to(1, helper, None)\n"
        )
        assert "RPL008" not in codes_of(lint_source(module_level, ANYWHERE_PATH))

    def test_rpl009_flags_untimed_future_result(self):
        bad = "def f(future):\n    return future.result()\n"
        assert "RPL009" in codes_of(lint_source(bad, SERVING_PATH))
        explicit_none = "def f(future):\n    return future.result(timeout=None)\n"
        assert "RPL009" in codes_of(lint_source(explicit_none, SERVING_PATH))
        bounded = "def f(future):\n    return future.result(timeout=5.0)\n"
        assert "RPL009" not in codes_of(lint_source(bounded, SERVING_PATH))
        # Outside the serving scope an unbounded wait is the caller's call.
        assert "RPL009" not in codes_of(lint_source(bad, ANYWHERE_PATH))

    def test_rpl009_flags_sleep_on_scheduler_pump(self):
        bad = "import time\ndef pump(self):\n    time.sleep(0.001)\n"
        assert "RPL009" in codes_of(lint_source(bad, SCHEDULER_PATH))
        assert "RPL009" not in codes_of(lint_source(bad, SERVING_PATH))

    def test_rpl010_flags_lock_order_violation(self):
        # LOCK_ORDER puts scheduler.py _cond before scheduler.py _lock, so
        # taking the pump condition while holding the stats lock inverts it.
        bad = (
            "class Engine:\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            with self._cond:\n"
            "                pass\n"
        )
        assert "RPL010" in codes_of(lint_source(bad, SCHEDULER_PATH))
        good = (
            "class Engine:\n"
            "    def f(self):\n"
            "        with self._cond:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        assert "RPL010" not in codes_of(lint_source(good, SCHEDULER_PATH))

    def test_rpl011_flags_non_atomic_persist(self):
        bad = (
            "def save(path, data):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(data)\n"
        )
        assert "RPL011" in codes_of(lint_source(bad, STORAGE_PATH))
        staged = (
            "import os\n"
            "def save(path, tmp_path, data):\n"
            "    with open(tmp_path, 'w') as handle:\n"
            "        handle.write(data)\n"
            "    os.replace(tmp_path, path)\n"
        )
        assert "RPL011" not in codes_of(lint_source(staged, STORAGE_PATH))
        # Append mode never clobbers existing durable bytes.
        appended = (
            "def log(path, line):\n"
            "    with open(path, 'ab') as handle:\n"
            "        handle.write(line)\n"
        )
        assert "RPL011" not in codes_of(lint_source(appended, STORAGE_PATH))
        # Outside the persistence scope in-place writes are the caller's call.
        assert "RPL011" not in codes_of(lint_source(bad, ANYWHERE_PATH))

    def test_rpl011_covers_path_open_method(self):
        bad = (
            "def save(path, data):\n"
            "    with path.open('w') as handle:\n"
            "        handle.write(data)\n"
        )
        assert "RPL011" in codes_of(lint_source(bad, STORAGE_PATH))
        staged = (
            "def save(staging_path, data):\n"
            "    with staging_path.open('w') as handle:\n"
            "        handle.write(data)\n"
        )
        assert "RPL011" not in codes_of(lint_source(staged, STORAGE_PATH))

    def test_rpl012_flags_unframed_pickle_load(self):
        bad = "import pickle\ndef read(data):\n    return pickle.loads(data)\n"
        assert "RPL012" in codes_of(lint_source(bad, PACKAGE_PATH))
        # The frame decoder is the one place persisted or spooled pickles
        # load; the journal decodes its records through it too.
        assert "RPL012" not in codes_of(lint_source(bad, "src/repro/runtime/transport.py"))
        assert "RPL012" in codes_of(lint_source(bad, "src/repro/storage/journal.py"))

    def test_rpl012_flags_pickle_loads_imported_by_name(self):
        bad = "from pickle import dumps, loads\n"
        assert "RPL012" in codes_of(lint_source(bad, PACKAGE_PATH))
        assert "RPL012" not in codes_of(lint_source("from pickle import dumps\n", PACKAGE_PATH))

    @pytest.mark.parametrize(
        "source",
        [
            "import concurrent.futures\n"
            "pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)\n",
            "from concurrent.futures import ProcessPoolExecutor as Pool\npool = Pool()\n",
            "import multiprocessing\npool = multiprocessing.Pool(2)\n",
            "import multiprocessing as mp\nworker = mp.Process(target=print)\n",
            "from multiprocessing import Process\nworker = Process(target=print)\n",
            "from multiprocessing.pool import Pool\npool = Pool(2)\n",
            "import multiprocessing\npool = multiprocessing.pool.Pool(2)\n",
            "import multiprocessing\n"
            "worker = multiprocessing.get_context('spawn').Process(target=print)\n",
            "import multiprocessing\n"
            "ctx = multiprocessing.get_context('fork')\n"
            "pool = ctx.Pool(2)\n",
        ],
        ids=[
            "executor",
            "executor-alias",
            "mp-pool",
            "mp-alias-process",
            "imported-process",
            "pool-module",
            "pool-module-attribute",
            "context-call",
            "context-name",
        ],
    )
    def test_rpl013_flags_worker_processes_outside_the_runtime_pool(self, source):
        assert "RPL013" in codes_of(lint_source(source, ANYWHERE_PATH))
        assert "RPL013" in codes_of(lint_source(source, PACKAGE_PATH))
        pool_module = "src/repro/runtime/process_pool.py"
        assert "RPL013" not in codes_of(lint_source(source, pool_module))

    def test_rpl013_leaves_threads_and_shared_memory_alone(self):
        source = (
            "import multiprocessing\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "from multiprocessing import shared_memory\n"
            "threads = ThreadPoolExecutor(max_workers=2)\n"
            "segment = shared_memory.SharedMemory(create=True, size=8)\n"
            "children = multiprocessing.active_children()\n"
            "pool = PersistentProcessPool(num_workers=2)\n"
        )
        assert "RPL013" not in codes_of(lint_source(source, ANYWHERE_PATH))

    def test_lock_order_table_is_well_formed(self):
        assert len(LOCK_ORDER) >= 2
        assert len(set(LOCK_ORDER)) == len(LOCK_ORDER)
        for filename, attr in LOCK_ORDER:
            assert filename.endswith(".py")
            assert attr.startswith("_")


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    BAD_LINE = "x = np.random.rand(3)"

    def test_line_suppression_silences_only_that_line(self):
        source = (
            "import numpy as np\n"
            f"{self.BAD_LINE}  # reprolint: disable=RPL001 -- fixture\n"
            f"{self.BAD_LINE}\n"
        )
        findings = lint_source(source, LIBRARY_PATH)
        assert codes_of(findings) == ["RPL001"]
        assert findings[0].line == 3

    def test_line_suppression_requires_matching_code(self):
        source = (
            "import numpy as np\n"
            f"{self.BAD_LINE}  # reprolint: disable=RPL002 -- wrong code\n"
        )
        assert codes_of(lint_source(source, LIBRARY_PATH)) == ["RPL001"]

    def test_file_suppression_silences_every_occurrence(self):
        source = (
            '"""Fixture."""\n'
            "# reprolint: disable-file=RPL001 -- fixture measures entropy\n"
            "import numpy as np\n"
            f"{self.BAD_LINE}\n"
            f"{self.BAD_LINE}\n"
        )
        assert lint_source(source, LIBRARY_PATH) == []

    def test_disable_all_silences_every_rule_on_the_line(self):
        source = (
            "import time, numpy as np\n"
            "x = np.random.rand(3); time.sleep(1)  # reprolint: disable=all -- fixture\n"
        )
        assert lint_source(source, LIBRARY_PATH) == []


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
class TestCLI:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        proc = self.run_cli(str(target))
        assert proc.returncode == 0
        assert "0 finding(s)" in proc.stdout

    def test_violating_file_exits_one_with_finding(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        target = pkg / "dirty.py"
        target.write_text("import numpy as np\nx = np.random.rand(3)\n")
        proc = self.run_cli(str(target))
        assert proc.returncode == 1
        assert "RPL001" in proc.stdout

    def test_json_format_and_output_artifact(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text("import numpy as np\nx = np.random.rand(3)\n")
        artifact = tmp_path / "findings.json"
        proc = self.run_cli(str(pkg), "--format", "json", "--output", str(artifact))
        assert proc.returncode == 1
        payload = json.loads(artifact.read_text())
        assert payload["tool"] == "reprolint"
        assert payload["finding_count"] == 1
        assert payload["findings"][0]["code"] == "RPL001"
        assert json.loads(proc.stdout) == payload

    def test_select_restricts_rules(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text(
            "import time, numpy as np\nx = np.random.rand(3)\nt = time.time()\n"
        )
        proc = self.run_cli(str(pkg), "--select", "RPL002")
        assert proc.returncode == 1
        assert "RPL002" in proc.stdout
        assert "RPL001" not in proc.stdout

    def test_list_rules_names_every_code(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule in all_rules():
            assert rule.code in proc.stdout

    def test_render_json_is_sorted_and_stable(self):
        findings = [
            Finding(code="RPL002", message="b", path="b.py", line=2, col=0),
            Finding(code="RPL001", message="a", path="a.py", line=1, col=0),
        ]
        payload = json.loads(render_json(findings, checked=2))
        assert payload["files_checked"] == 2
        assert [f["code"] for f in payload["findings"]] == ["RPL002", "RPL001"]


# ----------------------------------------------------------------------
# The repository gate
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    @pytest.mark.parametrize("tree", ["src", "tests", "benchmarks"])
    def test_tree_lints_clean(self, tree):
        findings, checked = lint_paths([str(REPO_ROOT / tree)])
        assert checked > 0
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_library_scope_never_suppresses_wall_clock_rule(self):
        # Library results are a pure function of their inputs, with no
        # exceptions: no file in RPL002's scope may silence it.
        rule = next(rule for rule in all_rules() if rule.code == "RPL002")
        in_scope = [
            path for path in iter_python_files([str(REPO_ROOT / "src")]) if rule.applies_to(path)
        ]
        assert in_scope
        suppressing = []
        for path in in_scope:
            per_line, per_file = _collect_suppressions(Path(path).read_text(encoding="utf-8"))
            if {"RPL002", "all"} & per_file.union(*per_line.values()):
                suppressing.append(path)
        assert suppressing == []
