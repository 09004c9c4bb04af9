import json

import numpy as np
import pytest

from cb2cf.cli import main
from cb2cf.corpus import load_vocabulary
from cb2cf.data import load_metadata, load_ratings, load_sets
from cb2cf.features import load_feature_context
from cb2cf.model import load_model
from cb2cf.sgns import EmbeddingTable


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset, fitted features, and a trained Genres model."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--items", "12", "--clusters", "3", "--dim", "6",
                 "--vocab-size", "12", "--set-count", "30", "--seed", "2",
                 "--out", str(data_dir)]) == 0
    assert main(["fit-features", "--metadata", str(data_dir / "metadata.jsonl"),
                 "--min-tag-count", "1", "--max-words", "8",
                 "--out", str(root / "ctx")]) == 0
    assert main(["train-model", "--system", "Genres+Year",
                 "--features", str(root / "ctx"),
                 "--metadata", str(data_dir / "metadata.jsonl"),
                 "--targets", str(data_dir / "vectors.vec"),
                 "--batch", "4", "--max-epochs", "2", "--val-fraction", "0",
                 "--word-dropout", "0", "--dropout", "0",
                 "--log", str(root / "train.log"),
                 "--out", str(root / "model.ckpt")]) == 0
    return root


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().out


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
    context = load_feature_context(workspace / "ctx")
    assert context.tag_vocab.size("genres") == 3  # 2 genres + sentinel
    assert context.word_table is None


def test_train_model_checkpoint_reloads_by_reference(workspace):
    model = load_model(workspace / "model.ckpt")
    assert model.spec.name == "Genres+Year"
    assert model.spec.output_dim == 6
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
                 "--features", str(workspace / "ctx"),
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
    vocab = load_vocabulary(tmp_path / "vocab.tsv")
    assert vocab.count("the") == 9


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
               "--field", "genres", "--a", "genre_aaa", "--b", "genre_aaa",
               "--c", "genre_aab", "--topk", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # Both real genres are query tags; only the sentinel is left to rank.
    assert len(lines) == 1
    tag, score = lines[0].split("\t")
    assert tag == "n/a"
    float(score)


def test_export_genre_labels(workspace, tmp_path, capsys):
    out = tmp_path / "labeled.tsv"
    rc = main(["export", "--vectors", str(workspace / "data" / "vectors.vec"),
               "--labels", "genre",
               "--metadata", str(workspace / "data" / "metadata.jsonl"),
               "--out", str(out)])
    assert rc == 0
    rows = [line.split("\t") for line in out.read_text().strip().splitlines()]
    assert len(rows) == 12
    assert {r[1] for r in rows} == {"genre_aaa", "genre_aab"}
    assert len(rows[0]) == 2 + 6


def test_export_year_labels_fall_back_to_the_sentinel(tmp_path):
    table = EmbeddingTable(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    table.save(tmp_path / "v.vec")
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"id": "a", "year": 1990}\n{"id": "b"}\n')
    out = tmp_path / "labeled.tsv"
    rc = main(["export", "--vectors", str(tmp_path / "v.vec"),
               "--labels", "year", "--metadata", str(meta),
               "--out", str(out)])
    assert rc == 0
    labels = [line.split("\t")[1]
              for line in out.read_text().strip().splitlines()]
    assert labels == ["1990", "n/a"]


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


def test_evaluate_with_no_usable_cutoff_fails(workspace, tmp_path, capsys):
    args = _evaluate_args(workspace, tmp_path / "r.tsv", tmp_path / "r.json")
    args[args.index("2,999")] = "999"
    assert main(args) == 1
    assert "no ndcg cutoff" in capsys.readouterr().err


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
    (load_vocabulary, b"a\t3\nb\xff\t2\n", 2),
    (_train_word2vec, b"alpha beta\ngamma \xff delta\n", 2),
], ids=["vectors", "ratings", "sets", "metadata", "vocabulary", "train-word2vec"])
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
