"""What each entry point imports, checked in fresh interpreters: reading data
loads no training module, and serving a trained model loads no scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmvhash
from rmvhash import cli

SRC = str(Path(rmvhash.__file__).resolve().parents[1])


def run_fresh(code, *args):
    """Run `code` in a new interpreter that imports rmvhash from this source
    tree; return the JSON value its last line of standard output holds."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


TRAIN_FLAGS = ["--bits", "8", "--graph-l", "12", "--kernel-r", "12", "--outer-iters", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small database, its queries and a model trained on the database."""
    root = tmp_path_factory.mktemp("imports")
    for name, per_cluster in (("db", 25), ("q", 5)):
        assert cli.main([
            "synth", "--out", str(root), "--name", name, "--clusters", "4",
            "--per-cluster", str(per_cluster), "--dims", "10,12", "--seed", "0",
        ]) == 0
    assert cli.main([
        "train", "--manifest", str(root / "db.manifest"), "--model", str(root / "m.rmvm"),
        *TRAIN_FLAGS,
    ]) == 0
    return root


def test_reader_loads_no_training_module(workspace):
    loaded = run_fresh(
        "import json, sys\n"
        "from rmvhash import dataset\n"
        "dataset.load_dataset(sys.argv[1])\n"
        "print(json.dumps([m for m in ('scipy', 'rmvhash.hash_trainer') if m in sys.modules]))",
        workspace / "db.manifest",
    )
    assert loaded == []


def command_argv(command, root):
    model = ["--model", root / "m.rmvm"]
    return {
        "encode": ["encode", *model, "--manifest", root / "db.manifest", "--out", root / "db.mvh"],
        "query": ["query", *model, "--manifest", root / "q.manifest", "--out", root / "q.mvh"],
        "eval": ["eval", *model, "--db", root / "db.manifest", "--queries", root / "q.manifest",
                 "--out-prefix", root / "run"],
        "inspect": ["inspect", *model],
        "train": ["train", "--manifest", root / "db.manifest", "--model", root / "m2.rmvm",
                  *TRAIN_FLAGS],
    }[command]


@pytest.mark.parametrize(
    "command, loads_scipy",
    [("encode", False), ("query", False), ("eval", False), ("inspect", False), ("train", True)],
)
def test_only_train_loads_scipy(workspace, command, loads_scipy):
    status, scipy_loaded = run_fresh(
        "import json, sys\n"
        "from rmvhash import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "print(json.dumps([status, 'scipy' in sys.modules]))",
        *command_argv(command, workspace),
    )
    assert (status, scipy_loaded) == (0, loads_scipy)


def test_package_attributes_are_submodules():
    assert run_fresh(
        "import json, sys\n"
        "import rmvhash\n"
        "print(json.dumps([getattr(rmvhash, name) is sys.modules['rmvhash.' + name]\n"
        "                  for name in rmvhash.__all__]))"
    ) == [True] * 9


def test_unknown_attribute_raises():
    assert run_fresh(
        "import json, rmvhash\n"
        "try:\n"
        "    rmvhash.no_such_module\n"
        "except AttributeError as e:\n"
        "    print(json.dumps(str(e)))"
    ) == "module 'rmvhash' has no attribute 'no_such_module'"


def test_star_import_binds_every_module():
    assert run_fresh(
        "import json\n"
        "from rmvhash import *\n"
        "print(json.dumps(sorted(n for n in dir() if not n.startswith('_') and n != 'json')))"
    ) == sorted(rmvhash.__all__)
