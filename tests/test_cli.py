import json
import os
import typing
from pathlib import Path

import numpy as np
import pytest

from cb2cf import cli, evaluation, features
from cb2cf.cli import main
from cb2cf.corpus import tokenize
from cb2cf.data import load_metadata, load_ratings, load_sets
from cb2cf.features import load_feature_context
from cb2cf.model import SystemSpec, TrainConfig, load_model
from cb2cf.sgns import EmbeddingTable, SgnsConfig
from cb2cf.synthetic import SyntheticSpec
from process_helpers import fresh_python


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset, fitted features, and a trained Genres model."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--items", "12", "--clusters", "3", "--dim", "6",
                 "--vocab-size", "12", "--set-count", "30", "--seed", "2",
                 "--out", str(data_dir)]) == 0
    assert main(["fit-features", "--metadata", str(data_dir / "metadata.jsonl"),
                 "--min-tag-count", "1", "--out", str(root / "ctx.ckpt")]) == 0
    assert main(["train-model", "--system", "Genres+Year",
                 "--features", str(root / "ctx.ckpt"),
                 "--metadata", str(data_dir / "metadata.jsonl"),
                 "--targets", str(data_dir / "vectors.vec"),
                 "--batch", "4", "--max-epochs", "2", "--val-fraction", "0",
                 "--word-dropout", "0", "--dropout", "0", "--max-words", "8",
                 "--log", str(root / "train.log"),
                 "--out", str(root / "model.ckpt")]) == 0
    return root


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().out


@pytest.mark.parametrize("command, cls, flags, overrides", [
    ("train-word2vec", SgnsConfig, cli._WORD_SGNS_FLAGS, {"dim": 100, "subsample": 1e-5}),
    ("train-item2vec", SgnsConfig, cli._SGNS_FLAGS, {}),
    ("train-model", TrainConfig, cli._TRAIN_FLAGS, {}),
    ("evaluate", TrainConfig, cli._TRAIN_FLAGS, {}),
    ("synth", SyntheticSpec, cli._SYNTH_FLAGS, {}),
])
def test_table_flags_take_type_and_default_from_their_config_field(command, cls, flags,
                                                                   overrides):
    parser, registry = cli.build_parser()
    actions = {a.dest: a for a in registry[command]._actions}
    hints = typing.get_type_hints(cls)
    for flag, name in flags.items():
        action = actions[flag.replace("-", "_")]
        default = overrides.get(name, getattr(cls, name))
        assert action.default == default and type(action.default) is type(default), flag
        assert action.type is (int if hints[name] == int | None else hints[name]), flag
    args = parser.parse_args([command])
    assert cli._from_args(cls, flags, args) == cls(**overrides)


def test_shared_flags_take_their_defaults_from_the_library():
    _, registry = cli.build_parser()
    for command in ("fit-features", "evaluate"):
        defaults = {a.dest: a.default for a in registry[command]._actions}
        assert (defaults["min_tag_count"], defaults["temperature"]) \
            == (features.DEFAULT_MIN_TAG_COUNT, features.DEFAULT_TEMPERATURE)
    for command in ("train-model", "evaluate"):
        defaults = {a.dest: a.default for a in registry[command]._actions}
        assert (defaults["cnn_variant"], defaults["max_words"]) \
            == (SystemSpec.cnn_variant, SystemSpec.text_length)
    # The text length belongs to the model, so featurization takes no cap.
    assert "max_words" not in {a.dest for a in registry["fit-features"]._actions}
    ndcg_k = next(a for a in registry["evaluate"]._actions if a.dest == "ndcg_k")
    assert tuple(int(k) for k in ndcg_k.default.split(",")) == evaluation.DEFAULT_NDCG_KS


CLI_SURFACE = Path(__file__).with_name("cli_surface.txt")


def _cli_surface() -> str:
    """One line per ``build_parser()`` action: parser, option strings, dest, type,
    default and choices."""
    parser, registry = cli.build_parser()
    lines = []
    for name, sub in [("cb2cf", parser), *registry.items()]:
        for action in sub._actions:
            choices = action.choices if action.choices is None else list(action.choices)
            kind = getattr(action.type, "__name__", action.type)
            lines.append(f"{name} {','.join(action.option_strings) or '-'} "
                         f"dest={action.dest} type={kind} default={action.default!r} "
                         f"choices={choices!r}")
    return "\n".join(lines) + "\n"


def test_cli_surface_matches_its_snapshot():
    """No flag, dest, type, default or choice changes unless the snapshot,
    ``tests/cli_surface.txt``, changes with it."""
    assert _cli_surface() == CLI_SURFACE.read_text(encoding="utf-8")


def test_synth_writes_a_loadable_dataset(workspace):
    data_dir = workspace / "data"
    sets = load_sets(data_dir / "sets.txt")
    assert len(sets.sets) == 30
    profiles = load_metadata(data_dir / "metadata.jsonl")
    assert len(profiles) == 12
    table = EmbeddingTable.load(data_dir / "vectors.vec")
    assert table.ids == [p.id for p in profiles]
    assert table.dim == 6


def test_fit_features_persists_a_context(workspace):
    assert (workspace / "ctx.ckpt").is_file()
    context = load_feature_context(workspace / "ctx.ckpt")
    assert context.tag_vocab.size("genres") == 3  # 2 genres + sentinel
    assert context.word_table is None


def test_train_model_checkpoint_reloads_by_reference(workspace):
    model = load_model(workspace / "model.ckpt")
    assert model.spec.name == "Genres+Year"
    assert model.spec.output_dim == 6
    assert model.spec.text_length == 8  # from train-model --max-words
    log = (workspace / "train.log").read_text()
    assert len(log.strip().splitlines()) == 2


def test_train_model_fails_loudly_on_divergence(workspace, tmp_path, capsys):
    data_dir = workspace / "data"
    table = EmbeddingTable.load(data_dir / "vectors.vec")
    huge = tmp_path / "huge.vec"
    EmbeddingTable(table.ids, np.full(table.vectors.shape, 1e200)).save(huge)
    capsys.readouterr()
    out = tmp_path / "model.ckpt"
    assert main(["train-model", "--system", "Genres+Year",
                 "--features", str(workspace / "ctx.ckpt"),
                 "--metadata", str(data_dir / "metadata.jsonl"),
                 "--targets", str(huge), "--batch", "4", "--max-epochs", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cb2cf train-model: error: training diverged at epoch 0")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_train_item2vec_from_sets(tmp_path, workspace, capsys):
    out = tmp_path / "items.vec"
    rc = main(["train-item2vec", "--sets", str(workspace / "data" / "sets.txt"),
               "--dim", "4", "--epochs", "2", "--neg", "2",
               "--subsample", "1.0", "--out", str(out)])
    assert rc == 0
    assert "item vectors of dim 4" in capsys.readouterr().out
    table = EmbeddingTable.load(out)
    assert table.dim == 4
    assert len(table) == 12


def test_train_item2vec_rejects_a_whitespace_item_id_before_training(tmp_path, capsys):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("userId,movieId,rating,timestamp\n"
                       "1,m0,4.0,1\n1,m 1,4.0,2\n2,m0,5.0,3\n2,m 1,4.5,4\n")
    out = tmp_path / "items.vec"
    assert main(["train-item2vec", "--ratings", str(ratings), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cb2cf train-item2vec: error: {ratings}:3: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-model", "evaluate"])
@pytest.mark.parametrize("checkpoint", ["model.ckpt", "ctx.ckpt"])
def test_a_checkpoint_that_is_no_vector_table_fails_as_targets(workspace, tmp_path, capsys,
                                                               command, checkpoint):
    targets = workspace / checkpoint
    out = tmp_path / "out"
    argv = {"train-model": ["--system", "Genres", "--features", str(workspace / "ctx.ckpt"),
                            "--out", str(out)],
            "evaluate": ["--systems", "Genres", "--report", str(out)]}[command]
    capsys.readouterr()
    assert main([command, "--metadata", str(workspace / "data" / "metadata.jsonl"),
                 "--targets", str(targets), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cb2cf {command}: error: {targets}: not a cb2cf-vectors file")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_train_item2vec_needs_exactly_one_source(tmp_path, capsys):
    rc = main(["train-item2vec", "--out", str(tmp_path / "x.vec")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("cb2cf train-item2vec: error:")
    assert "exactly one" in err

    sets = tmp_path / "sets.txt"
    sets.write_text("a b\n")
    rc = main(["train-item2vec", "--ratings", "r.csv", "--sets", str(sets),
               "--out", str(tmp_path / "x.vec")])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err


def test_train_word2vec_with_vocab_export(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(("the quick brown fox jumps over the lazy dog\n"
                       "the quick brown cat naps\n") * 3)
    rc = main(["train-word2vec", "--corpus", str(corpus), "--dim", "4",
               "--epochs", "2", "--neg", "2", "--subsample", "1.0",
               "--save-vocab", str(tmp_path / "vocab.tsv"),
               "--out", str(tmp_path / "words.vec")])
    assert rc == 0
    assert "word vectors" in capsys.readouterr().out
    table = EmbeddingTable.load(tmp_path / "words.vec")
    assert "the" in table
    assert (tmp_path / "vocab.tsv").read_text().startswith("the\t9\n")


def test_train_word2vec_vocab_cap_keeps_the_ranked_head_and_trains_only_it(tmp_path):
    # Counts: alpha 4, beta 3, gamma 2, delta 2, omega 1. The cap of 3 cuts
    # inside the gamma/delta tie, which breaks lexicographically, not by
    # first appearance.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("alpha beta gamma omega\nalpha gamma beta\n"
                      "alpha delta\nbeta alpha delta\n")
    rc = main(["train-word2vec", "--corpus", str(corpus), "--dim", "4",
               "--epochs", "1", "--vocab-cap", "3",
               "--save-vocab", str(tmp_path / "vocab.tsv"),
               "--out", str(tmp_path / "words.vec")])
    assert rc == 0
    assert (tmp_path / "vocab.tsv").read_text() == "alpha\t4\nbeta\t3\ndelta\t2\n"
    assert EmbeddingTable.load(tmp_path / "words.vec").ids == ["alpha", "beta", "delta"]


def test_train_word2vec_rejects_an_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("\n\n")
    rc = main(["train-word2vec", "--corpus", str(corpus),
               "--out", str(tmp_path / "w.vec")])
    assert rc == 1
    assert "no usable text" in capsys.readouterr().err


def test_recommend_lists_neighbors(workspace, capsys):
    rc = main(["recommend", "--model", str(workspace / "model.ckpt"),
               "--catalog", str(workspace / "data" / "vectors.vec"),
               "--metadata", str(workspace / "data" / "metadata.jsonl"),
               "--item", "m00000", "--topk", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        item_id, score = line.split("\t")
        assert item_id != "m00000"
        assert -1.0 <= float(score) <= 1.0


def test_recommend_unknown_item_fails(workspace, capsys):
    rc = main(["recommend", "--model", str(workspace / "model.ckpt"),
               "--catalog", str(workspace / "data" / "vectors.vec"),
               "--metadata", str(workspace / "data" / "metadata.jsonl"),
               "--item", "nope"])
    assert rc == 1
    assert "not in the metadata" in capsys.readouterr().err


def test_analogy_over_the_trained_tag_layer(workspace, capsys):
    rc = main(["analogy", "--model", str(workspace / "model.ckpt"),
               "--features", str(workspace / "ctx.ckpt"), "--field", "genres",
               "--a", "genre_aaa", "--b", "genre_aaa", "--c", "genre_aab", "--topk", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # Both real genres are query tags; only the sentinel is left to rank.
    assert len(lines) == 1
    tag, score = lines[0].split("\t")
    assert tag == "n/a"
    float(score)


def _evaluate_args(workspace, report, report_json):
    data_dir = workspace / "data"
    return ["evaluate", "--systems", "Genres+Year,Year",
            "--metadata", str(data_dir / "metadata.jsonl"),
            "--targets", str(data_dir / "vectors.vec"),
            "--folds", "3", "--min-tag-count", "1",
            "--ndcg-k", "2,999",
            "--batch", "4", "--max-epochs", "2", "--val-fraction", "0",
            "--word-dropout", "0", "--dropout", "0",
            "--report", str(report), "--report-json", str(report_json)]


def test_evaluate_writes_reports_and_warns_on_bad_cutoffs(
        workspace, tmp_path, capsys):
    report = tmp_path / "report.tsv"
    report_json = tmp_path / "report.json"
    rc = main(_evaluate_args(workspace, report, report_json))
    captured = capsys.readouterr()
    assert rc == 0
    assert "dropping ndcg cutoffs" in captured.err
    assert "999" in captured.err
    stdout_lines = captured.out.strip().splitlines()
    assert len(stdout_lines) == 2
    assert all("mpr=" in line for line in stdout_lines)

    lines = report.read_text().splitlines()
    assert lines[0] == "system\tfold\tmse\tmpr\tndcg@2"
    assert len(lines) == 1 + 2 * 4

    payload = json.loads(report_json.read_text())
    assert payload["version"] == 1
    assert payload["ndcg_ks"] == [2]
    assert [s["system"] for s in payload["systems"]] == ["Genres+Year", "Year"]


def test_evaluate_reruns_byte_identically(workspace, tmp_path):
    first_tsv = tmp_path / "a.tsv"
    second_tsv = tmp_path / "b.tsv"
    assert main(_evaluate_args(workspace, first_tsv, tmp_path / "a.json")) == 0
    assert main(_evaluate_args(workspace, second_tsv, tmp_path / "b.json")) == 0
    assert first_tsv.read_bytes() == second_tsv.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_evaluate_report_is_the_same_with_blas_pinned_or_unset(tmp_path):
    """Plain ``cb2cf evaluate`` runs what a run pinned to one BLAS thread
    runs. The full system's widest layers are large enough that a BLAS
    thread pool sums them in another order, so the bytes show which ran."""
    data = tmp_path / "data"
    assert main(["synth", "--items", "60", "--dim", "40", "--vocab-size", "300",
                 "--seed", "2", "--out", str(data)]) == 0
    words = sorted({w for p in load_metadata(data / "metadata.jsonl")
                    for w in tokenize(p.plot or "")})
    EmbeddingTable(words, np.random.default_rng(0).standard_normal((len(words), 32))).save(
        data / "words.vec")
    reports = []
    for tag, blas in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        report_json = tmp_path / f"{tag}.json"
        fresh_python("-m", "cb2cf.cli", "evaluate", "--systems", "CNN+BOW+Tags+Year",
                     "--metadata", str(data / "metadata.jsonl"),
                     "--targets", str(data / "vectors.vec"),
                     "--word-vectors", str(data / "words.vec"),
                     "--folds", "2", "--min-tag-count", "1", "--ndcg-k", "2",
                     "--batch", "4", "--max-epochs", "1", "--val-fraction", "0",
                     "--report", str(tmp_path / f"{tag}.tsv"),
                     "--report-json", str(report_json), **blas)
        reports.append(report_json.read_bytes())
    assert reports[0] == reports[1]


def test_evaluate_with_no_usable_cutoff_fails(workspace, tmp_path, capsys):
    args = _evaluate_args(workspace, tmp_path / "r.tsv", tmp_path / "r.json")
    args[args.index("2,999")] = "999"
    assert main(args) == 1
    assert "no ndcg cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, repeated", [
    ("--systems", "Year,Genres+Year,Year", "Year"),
    ("--ndcg-k", "2,999,02", "2"),
])
def test_evaluate_rejects_a_repeated_entry(workspace, tmp_path, capsys, monkeypatch,
                                           flag, value, repeated):
    monkeypatch.setattr(evaluation, "run_evaluation",
                        lambda *args, **kwargs: pytest.fail("evaluation ran"))
    report, report_json = tmp_path / "r.tsv", tmp_path / "r.json"
    args = _evaluate_args(workspace, report, report_json)
    args[args.index(flag) + 1] = value
    assert main(args) == 1
    assert capsys.readouterr().err == \
        f"cb2cf evaluate: error: {flag} lists {repeated} more than once\n"
    assert not report.exists() and not report_json.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--ndcg-k", "2,x", "--ndcg-k: invalid literal for int() with base 10: 'x'"),
    ("--systems", "Tags,Foo", "--systems: unknown system component 'Foo'"),
    ("--systems", "Year,Genres+", "--systems: unknown system component ''"),
])
def test_evaluate_checks_its_lists_before_reading_any_file(tmp_path, capsys, flag, value,
                                                           message):
    args = _evaluate_args(tmp_path, tmp_path / "r.tsv", tmp_path / "r.json")
    assert not Path(args[args.index("--metadata") + 1]).exists()
    args[args.index(flag) + 1] = value
    assert main(args) == 1
    assert capsys.readouterr().err == f"cb2cf evaluate: error: {message}\n"


_ABSENT = "absent.input"  # a relative path under tmp_path that is never written
# Each command's required flags, naming inputs that are never written.
_GIVEN = {"evaluate": {"--systems": "Year", "--metadata": _ABSENT, "--targets": _ABSENT,
                       "--report": "r.tsv"},
          "train-model": {"--system": "Year", "--features": _ABSENT,
                          "--metadata": _ABSENT, "--targets": _ABSENT, "--out": "m"},
          "train-item2vec": {"--sets": _ABSENT, "--out": "v"},
          "train-word2vec": {"--corpus": _ABSENT, "--out": "v"},
          "fit-features": {"--metadata": _ABSENT, "--out": "ctx"},
          "synth": {"--out": "s"},
          "recommend": {"--model": _ABSENT, "--catalog": _ABSENT, "--metadata": _ABSENT,
                        "--item": "m"},
          "analogy": {"--model": _ABSENT, "--field": "genres", "--a": "x", "--b": "y",
                      "--c": "z"}}
_CENTROIDS = "--bow-centroids: centroid count must be >= 0 (0 for none)"


@pytest.mark.parametrize("command, flags, message", [
    ("evaluate", ["--max-words", "0"], "--max-words: text_length must be an integer >= 1"),
    ("evaluate", ["--max-words", "2"], "--max-words: cnn_width exceeds text_length"),
    ("evaluate", ["--batch", "0"], "batch_size must be >= 1"),
    ("evaluate", ["--val-fraction", "1"], "val_fraction must be in [0, 1)"),
    ("evaluate", ["--lr", "0"], "learning_rate must be positive and finite"),
    ("evaluate", ["--systems", "CNN+Year"], "these systems need --word-vectors"),
    ("evaluate", ["--systems", "BOW", "--word-vectors", _ABSENT, "--bow-centroids", "0"],
     "a BOW system needs --bow-centroids >= 1"),
    ("train-model", ["--max-words", "0"], "--max-words: text_length must be an integer >= 1"),
    ("train-model", ["--patience", "0"], "patience must be >= 1"),
    ("train-model", ["--system", "Year+Foo"], "unknown system component 'Foo'"),
    ("train-item2vec", ["--dim", "0"], "dim must be >= 1"),
    ("train-item2vec", ["--lr", "0"], "learning rate must be positive and finite"),
    ("train-word2vec", ["--window", "0"], "window must be >= 1"),
    ("evaluate", ["--folds", "1"], "--folds: folds must be >= 2"),
    ("evaluate", ["--folds", "0"], "--folds: folds must be >= 2"),
    ("evaluate", ["--temperature", "0"],
     "--temperature: temperature must be positive and finite"),
    ("evaluate", ["--min-tag-count", "0"], "--min-tag-count: min_count must be >= 1"),
    ("fit-features", ["--temperature", "0"],
     "--temperature: temperature must be positive and finite"),
    ("fit-features", ["--min-tag-count", "0"], "--min-tag-count: min_count must be >= 1"),
    *[(command, [flag, value], message) for value in ("nan", "inf")
      for command, flag, message in [
          ("evaluate", "--temperature", "--temperature: temperature must be positive and finite"),
          ("fit-features", "--temperature",
           "--temperature: temperature must be positive and finite"),
          ("evaluate", "--lr", "learning_rate must be positive and finite"),
          ("train-model", "--lr", "learning_rate must be positive and finite"),
          ("train-item2vec", "--lr", "learning rate must be positive and finite"),
          ("train-word2vec", "--lr", "learning rate must be positive and finite"),
          ("evaluate", "--l2", "l2 must be non-negative and finite"),
          ("train-model", "--l2", "l2 must be non-negative and finite")]],
    ("evaluate", ["--seed", "-1"], "--seed: seed must be >= 0"),
    ("train-model", ["--seed", "-1"], "--seed: seed must be >= 0"),
    *[(command, ["--seed", "-1"], "--seed: seed must be >= 0")
      for command in ("train-word2vec", "train-item2vec", "synth", "fit-features")],
    ("fit-features", ["--bow-centroids", "-1"], _CENTROIDS),
    ("evaluate", ["--bow-centroids", "-1"], _CENTROIDS),
    ("train-word2vec", ["--vocab-cap", "0"], "--vocab-cap: vocabulary cap must be >= 1"),
    ("recommend", ["--topk", "0"], "--topk: topk must be >= 1"),
    ("analogy", ["--topk", "0"], "--topk: topk must be >= 1"),
    *[("train-item2vec", ["--threshold", value], "--threshold: threshold must be finite")
      for value in ("nan", "inf")],
    ("synth", ["--noise", "nan"], "noise must be >= 0 and finite"),
    ("synth", ["--year-weight", "inf"], "year_weight must be >= 0 and finite"),
])
def test_flag_values_are_checked_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                         command, flags, message):
    monkeypatch.chdir(tmp_path)
    given = {**_GIVEN[command], **dict(zip(flags[::2], flags[1::2]))}
    argv = [command] + [a for pair in given.items() for a in pair]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"cb2cf {command}: error: {message}\n"
    assert not (tmp_path / _ABSENT).exists() and os.listdir(tmp_path) == []


def test_every_flag_rule_names_a_parser_dest():
    """A misspelled key would switch its rule off: no command would have that dest."""
    _, registry = cli.build_parser()
    dests = {action.dest for sub in registry.values() for action in sub._actions}
    assert set(cli._FLAG_RULES) <= dests


def test_every_command_with_a_seed_rejects_a_negative_one_before_reading(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, registry = cli.build_parser()
    seeded = [name for name, sub in registry.items()
              if any(action.dest == "seed" for action in sub._actions)]
    assert len(seeded) >= 6
    for command in seeded:
        argv = [command] + [a for pair in _GIVEN[command].items() for a in pair]
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == f"cb2cf {command}: error: --seed: seed must be >= 0\n"
    assert os.listdir(tmp_path) == []


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({
            "items": 10, "clusters": 2, "dim": 5, "vocab-size": 8,
            "set-count": 4, "out": str(tmp_path / "from_config")}))
        assert main(["synth", "--config", str(config)]) == 0
        assert len(load_metadata(tmp_path / "from_config" / "metadata.jsonl")) == 10

        assert main(["synth", "--config", str(config), "--items", "8",
                     "--out", str(tmp_path / "overridden")]) == 0
        assert len(load_metadata(tmp_path / "overridden" / "metadata.jsonl")) == 8

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"bogus": 1}')
        rc = main(["synth", "--config", str(config),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown option 'bogus'" in capsys.readouterr().err

    def test_non_object_config_fails(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        rc = main(["synth", "--config", str(config),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        (b'{"items": 5,\n "out": "x\xff"}', ":2: not valid UTF-8"),
        (b'{"items": 5,', ": invalid JSON"),
    ], ids=["non-utf8", "invalid-json"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, body, message):
        config = tmp_path / "bad.json"
        config.write_bytes(body)
        assert main(["synth", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{config}{message}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, key, value", [
        ("synth", "dim", [4]),
        ("train-item2vec", "epochs", 2.7),
        ("synth", "dim", True),
        ("synth", "noise", True),
        ("synth", "noise", "0.1"),
        ("synth", "out", 5),
        ("evaluate", "cnn-variant", "dynamic"),
    ], ids=["int-list", "int-float", "int-bool", "float-bool", "float-string",
            "string-int", "not-a-choice"])
    def test_bad_config_value_names_the_file_and_the_key(self, tmp_path, capsys,
                                                         command, key, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{config}: bad value {value!r} for key {key!r}" in err

    def test_a_nan_config_value_is_checked_before_any_file_is_read(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "evaluate.json"
        config.write_text('{"systems": "Year", "metadata": "%s", "targets": "%s", '
                          '"report": "r.tsv", "temperature": NaN}' % (_ABSENT, _ABSENT))
        assert main(["evaluate", "--config", str(config)]) == 1
        assert capsys.readouterr().err == \
            "cb2cf evaluate: error: --temperature: temperature must be positive and finite\n"
        assert os.listdir(tmp_path) == ["evaluate.json"]

    def test_config_values_obey_the_option_choices(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        config = tmp_path / "evaluate.json"
        config.write_text(json.dumps({
            "systems": "CNN", "cnn_variant": "bogus",
            "metadata": str(workspace / "data" / "metadata.jsonl"),
            "targets": str(workspace / "data" / "vectors.vec"), "report": str(out)}))
        assert main(["evaluate", "--config", str(config)]) == 1
        assert f"{config}: bad value 'bogus' for key 'cnn_variant'" in capsys.readouterr().err
        assert not out.exists()


def test_missing_required_flag_is_a_one_line_error(capsys):
    assert main(["fit-features"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cb2cf fit-features: error:")
    assert "--metadata is required" in err
    assert len(err.strip().splitlines()) == 1


def test_missing_input_file_is_reported_not_raised(tmp_path, capsys):
    rc = main(["train-item2vec", "--sets", str(tmp_path / "absent.txt"),
               "--out", str(tmp_path / "x.vec")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("cb2cf train-item2vec: error:")


def _train_word2vec(path):
    return main(["train-word2vec", "--corpus", str(path), "--out", str(path) + ".vec"])


@pytest.mark.parametrize("reader, body, line", [
    (EmbeddingTable.load, b"2 2\na 1.0 2.0\nb\xff 1.0 2.0\n", 3),
    (load_ratings, b"userId,movieId,rating,timestamp\nu1,m1,4.0,1\nu\xff,m2,4.0,2\n", 3),
    (load_sets, b"a b\nc \xff d\n", 2),
    (load_metadata, b'{"id": "a"}\n{"id": "b\xff"}\n', 2),
    (_train_word2vec, b"alpha beta\ngamma \xff delta\n", 2),
], ids=["vectors", "ratings", "sets", "metadata", "train-word2vec"])
def test_non_utf8_input_names_the_path_and_line(tmp_path, capsys, reader, body, line):
    path = tmp_path / "input"
    path.write_bytes(body)
    message = f"{path}:{line}: not valid UTF-8"
    if reader is _train_word2vec:
        assert reader(path) == 1
        assert capsys.readouterr().err.strip().endswith(message)
        return
    with pytest.raises(ValueError) as raised:
        reader(path)
    assert str(raised.value) == message
