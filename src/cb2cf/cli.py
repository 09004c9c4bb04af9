"""Command-line entry point.

Every subcommand accepts --config FILE, a JSON object whose keys are the
long option names (dashes or underscores); explicit flags override config
values. Exit code 0 on success, 1 with a one-line stderr diagnostic on
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data, evaluation, features, model as model_mod, synthetic
from .corpus import DEFAULT_CAP, build_vocabulary, open_text, save_vocabulary, tokenize
from .sgns import EmbeddingTable, SgnsConfig, similarity_search, train_sgns


class CliError(Exception):
    pass


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"--{name.replace('_', '-')} is required")


def _read_corpus(path: str) -> list[list[str]]:
    sentences = []
    with open_text(path) as fh:
        for line in fh:
            tokens = tokenize(line)
            if tokens:
                sentences.append(tokens)
    if not sentences:
        raise CliError(f"{path}: no usable text")
    return sentences


def _cmd_train_word2vec(args: argparse.Namespace) -> None:
    _require(args, "corpus", "out")
    sentences = _read_corpus(args.corpus)
    vocab = build_vocabulary(sentences, cap=args.vocab_cap)
    kept = [[t for t in s if t in vocab] for s in sentences]
    kept = [s for s in kept if s]
    config = SgnsConfig.word_defaults(
        dim=args.dim, epochs=args.epochs, negatives=args.neg,
        subsample=args.subsample, window=args.window,
        learning_rate=args.lr, seed=args.seed)
    table = train_sgns(kept, config)
    table.save(args.out)
    if args.save_vocab:
        save_vocabulary(vocab, args.save_vocab)
    print(f"trained {len(table)} word vectors of dim {table.dim} -> {args.out}")


def _cmd_train_item2vec(args: argparse.Namespace) -> None:
    _require(args, "out")
    if (args.ratings is None) == (args.sets is None):
        raise CliError("pass exactly one of --ratings / --sets")
    if args.ratings:
        histories = data.load_ratings(args.ratings)
        sets = data.cooccurrence_from_ratings(histories, threshold=args.threshold)
    else:
        sets = data.load_sets(args.sets)
    if not sets.sets:
        raise CliError("no co-occurrence sets of size >= 2")
    config = SgnsConfig.item_defaults(
        dim=args.dim, epochs=args.epochs, negatives=args.neg,
        subsample=args.subsample, learning_rate=args.lr, seed=args.seed)
    table = train_sgns(sets, config)
    table.save(args.out)
    print(f"trained {len(table)} item vectors of dim {table.dim} from "
          f"{len(sets.sets)} sets ({sets.dropped} dropped) -> {args.out}")


def _cmd_fit_features(args: argparse.Namespace) -> None:
    _require(args, "metadata", "out")
    profiles = data.load_metadata(args.metadata)
    word_table = None
    centroids = None
    if args.word_vectors:
        word_table = EmbeddingTable.load(args.word_vectors)
        if args.bow_centroids > 0:
            centroids = features.fit_kmeans(word_table.vectors, args.bow_centroids,
                                            seed=args.seed)
    context = features.fit_feature_context(
        profiles, word_table=word_table, centroids=centroids,
        max_words=args.max_words, min_tag_count=args.min_tag_count,
        temperature=args.temperature)
    features.save_feature_context(context, args.out)
    sizes = ", ".join(f"{f}={context.tag_vocab.size(f)}" for f in features.TAG_FIELDS)
    print(f"feature context over {len(profiles)} profiles ({sizes}) -> {args.out}")


def _train_config(args: argparse.Namespace) -> model_mod.TrainConfig:
    return model_mod.TrainConfig(
        batch_size=args.batch, word_dropout=args.word_dropout,
        dropout=args.dropout, l2=args.l2, learning_rate=args.lr,
        max_epochs=args.max_epochs, patience=args.patience,
        val_fraction=args.val_fraction, seed=args.seed)


def _cmd_train_model(args: argparse.Namespace) -> None:
    _require(args, "system", "features", "metadata", "targets", "out")
    context = features.load_feature_context(args.features)
    profiles = data.load_metadata(args.metadata)
    targets = EmbeddingTable.load(args.targets)
    spec = model_mod.SystemSpec.named(
        args.system, output_dim=targets.dim, cnn_variant=args.cnn_variant,
        text_length=context.max_words)
    usable = [p for p in profiles if p.id in targets]
    if not usable:
        raise CliError("no metadata item has a target vector")
    if len(usable) < len(profiles):
        print(f"skipping {len(profiles) - len(usable)} items without target vectors",
              file=sys.stderr)
    parts = model_mod.bundle_parts(spec)
    bundles = [features.featurize_item(p, context, parts) for p in usable]
    net_model = model_mod.build_model(spec, context, seed=args.seed)
    report = model_mod.train(net_model, bundles, targets, _train_config(args))
    if report.stop_reason == "diverged":
        raise CliError(f"training diverged at epoch {report.epochs - 1} "
                       f"(non-finite loss or weights); no model written")
    ref = os.path.relpath(Path(args.features).resolve(),
                          Path(args.out).resolve().parent)
    model_mod.save_model(net_model, args.out, features_ref=ref)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.log_lines()) + "\n")
    best = "-" if report.best_epoch is None else str(report.best_epoch)
    print(f"trained {spec.name} for {report.epochs} epochs "
          f"(stop={report.stop_reason}, best_epoch={best}) -> {args.out}")


def _load_model(args: argparse.Namespace) -> model_mod.Cb2cfModel:
    context = features.load_feature_context(args.features) if args.features else None
    return model_mod.load_model(args.model, features=context)


def _cmd_evaluate(args: argparse.Namespace) -> None:
    _require(args, "systems", "metadata", "targets", "report")
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    if not systems:
        raise CliError("--systems lists no system names")
    profiles = data.load_metadata(args.metadata)
    targets = EmbeddingTable.load(args.targets)
    usable = [p for p in profiles if p.id in targets]
    if not usable:
        raise CliError("no metadata item has a target vector")
    if len(usable) < len(profiles):
        print(f"skipping {len(profiles) - len(usable)} items without target vectors",
              file=sys.stderr)

    needed = set()
    for name in systems:
        needed |= model_mod.bundle_parts(
            model_mod.SystemSpec.named(name, output_dim=targets.dim))
    word_table = None
    centroids = None
    if args.word_vectors:
        word_table = EmbeddingTable.load(args.word_vectors)
        if "bow" in needed:
            if args.bow_centroids < 1:
                raise CliError("a BOW system needs --bow-centroids >= 1")
            centroids = features.fit_kmeans(word_table.vectors, args.bow_centroids,
                                            seed=args.seed)
    elif needed & {"text", "bow"}:
        raise CliError("these systems need --word-vectors")

    ks = []
    for raw in args.ndcg_k.split(","):
        raw = raw.strip()
        if raw:
            ks.append(int(raw))
    if not ks:
        raise CliError("--ndcg-k lists no cutoffs")
    limit = len(targets) - 1
    usable_ks = tuple(k for k in ks if 1 <= k <= limit)
    if len(usable_ks) < len(ks):
        print(f"dropping ndcg cutoffs outside 1..{limit}: "
              f"{[k for k in ks if k not in usable_ks]}", file=sys.stderr)
    if not usable_ks:
        raise CliError(f"no ndcg cutoff fits a catalog of {len(targets)} items")

    dataset = evaluation.EvalDataset(usable, targets, word_table, centroids)
    report = evaluation.run_evaluation(
        systems, dataset, _train_config(args), folds=args.folds, seed=args.seed,
        ndcg_ks=usable_ks, min_tag_count=args.min_tag_count,
        temperature=args.temperature,
        spec_overrides={"text_length": args.max_words,
                        "cnn_variant": args.cnn_variant})
    tsv = evaluation.report_tsv(report)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(tsv)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(evaluation.report_json_dict(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
    for sys_report in report.systems:
        print(f"{sys_report.system}\tmpr={sys_report.mean.mpr!r}\t"
              f"mse={sys_report.mean.mse!r}")


def _cmd_recommend(args: argparse.Namespace) -> None:
    _require(args, "model", "catalog", "metadata", "item")
    net_model = _load_model(args)
    catalog = EmbeddingTable.load(args.catalog)
    profiles = {p.id: p for p in data.load_metadata(args.metadata)}
    if args.item not in profiles:
        raise CliError(f"item {args.item!r} not in the metadata")
    bundle = features.featurize_item(profiles[args.item], net_model.features,
                                     model_mod.bundle_parts(net_model.spec))
    predicted = model_mod.predict(net_model, [bundle])[0]
    for item_id, score in similarity_search(predicted, catalog, args.topk,
                                            exclude={args.item}):
        print(f"{item_id}\t{score!r}")


def _cmd_analogy(args: argparse.Namespace) -> None:
    _require(args, "model", "field", "a", "b", "c")
    net_model = _load_model(args)
    for tag, score in model_mod.analogy(net_model, args.field, args.a, args.b,
                                        args.c, topk=args.topk):
        print(f"{tag}\t{score!r}")


def _cmd_synth(args: argparse.Namespace) -> None:
    _require(args, "out")
    spec = synthetic.SyntheticSpec(
        items=args.items, clusters=args.clusters, dim=args.dim,
        vocab_size=args.vocab_size, noise=args.noise,
        year_weight=args.year_weight, set_count=args.set_count, seed=args.seed)
    sets, profiles, vectors = synthetic.generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.save_sets(sets, out / "sets.txt")
    data.save_metadata(profiles, out / "metadata.jsonl")
    vectors.save(out / "vectors.vec")
    print(f"synthetic dataset: {spec.items} items, {spec.clusters} clusters, "
          f"{len(sets.sets)} sets -> {out}")


def _cmd_export(args: argparse.Namespace) -> None:
    _require(args, "vectors", "labels", "metadata", "out")
    table = EmbeddingTable.load(args.vectors)
    profiles = {p.id: p for p in data.load_metadata(args.metadata)}
    labels: dict[str, str] = {}
    for item_id in table.ids:
        profile = profiles.get(item_id)
        if profile is None:
            raise CliError(f"no metadata for exported item {item_id!r}")
        if args.labels == "genre":
            labels[item_id] = profile.genres[0] if profile.genres else features.NA_TOKEN
        else:
            labels[item_id] = str(profile.year) if profile.year is not None \
                else features.NA_TOKEN
    data.export_labeled_vectors(table, labels, args.out)
    print(f"exported {len(table)} labeled vectors -> {args.out}")


def _add_sgns_flags(sub: argparse.ArgumentParser, dim: int, subsample: float) -> None:
    sub.add_argument("--dim", type=int, default=dim)
    sub.add_argument("--neg", type=int, default=15)
    sub.add_argument("--subsample", type=float, default=subsample)
    sub.add_argument("--epochs", type=int, default=100)
    sub.add_argument("--lr", type=float, default=0.025)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--batch", type=int, default=32)
    sub.add_argument("--l2", type=float, default=1e-4)
    sub.add_argument("--dropout", type=float, default=0.2)
    sub.add_argument("--word-dropout", type=float, default=0.2)
    sub.add_argument("--lr", type=float, default=1e-3)
    sub.add_argument("--max-epochs", type=int, default=100)
    sub.add_argument("--patience", type=int, default=5)
    sub.add_argument("--val-fraction", type=float, default=0.1)
    sub.add_argument("--cnn-variant", choices=model_mod.CNN_VARIANTS,
                     default="non-static")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="cb2cf",
        description="Train CF item vectors from co-occurrence, map content "
                    "features onto them, and evaluate the mapping.")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option defaults")
        p.set_defaults(func=handler)
        registry[name] = p
        return p

    p = sub("train-word2vec", _cmd_train_word2vec,
            "train word vectors on a text corpus")
    p.add_argument("--corpus")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--vocab-cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--save-vocab")
    _add_sgns_flags(p, dim=100, subsample=1e-5)

    p = sub("train-item2vec", _cmd_train_item2vec,
            "train CF item vectors from co-occurrence sets")
    p.add_argument("--ratings")
    p.add_argument("--sets")
    p.add_argument("--threshold", type=float, default=3.5)
    _add_sgns_flags(p, dim=40, subsample=1e-4)

    p = sub("fit-features", _cmd_fit_features,
            "fit tag/year statistics and persist the feature context")
    p.add_argument("--metadata")
    p.add_argument("--word-vectors")
    p.add_argument("--bow-centroids", type=int, default=250)
    p.add_argument("--max-words", type=int, default=500)
    p.add_argument("--min-tag-count", type=int, default=5)
    p.add_argument("--temperature", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub("train-model", _cmd_train_model,
            "train a content-to-CF regression model")
    p.add_argument("--system")
    p.add_argument("--features")
    p.add_argument("--metadata")
    p.add_argument("--targets")
    p.add_argument("--log")
    p.add_argument("--out")
    _add_train_flags(p)

    p = sub("evaluate", _cmd_evaluate,
            "k-fold evaluation of one or more systems")
    p.add_argument("--systems")
    p.add_argument("--metadata")
    p.add_argument("--targets")
    p.add_argument("--word-vectors")
    p.add_argument("--bow-centroids", type=int, default=250)
    p.add_argument("--max-words", type=int, default=500)
    p.add_argument("--min-tag-count", type=int, default=5)
    p.add_argument("--temperature", type=float, default=0.1)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--ndcg-k", default="10,30,50,100,200,500,1000")
    p.add_argument("--report")
    p.add_argument("--report-json")
    _add_train_flags(p)

    p = sub("recommend", _cmd_recommend,
            "predict an item's CF vector from content and list its neighbors")
    p.add_argument("--model")
    p.add_argument("--catalog")
    p.add_argument("--metadata")
    p.add_argument("--features")
    p.add_argument("--item")
    p.add_argument("--topk", type=int, default=4)

    p = sub("analogy", _cmd_analogy, "tag analogy over a model's tag layer")
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--field")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--topk", type=int, default=1)

    p = sub("synth", _cmd_synth, "generate a seeded synthetic dataset")
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--vocab-size", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--year-weight", type=float, default=0.0)
    p.add_argument("--set-count", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub("export", _cmd_export, "export labeled vectors for visualization")
    p.add_argument("--vectors")
    p.add_argument("--labels", choices=("genre", "year"))
    p.add_argument("--metadata")
    p.add_argument("--out")

    return parser, registry


def _apply_config(parser: argparse.ArgumentParser,
                  registry: dict[str, argparse.ArgumentParser],
                  argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    with open(args.config, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise CliError(f"{args.config}: config must be a JSON object")
    sub = registry[args.command]
    valid = {a.dest for a in sub._actions}
    defaults = {}
    for key, value in loaded.items():
        dest = key.replace("-", "_")
        if dest not in valid or dest in ("config", "func", "help"):
            raise CliError(f"{args.config}: unknown option {key!r} for {args.command}")
        defaults[dest] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)  # explicit flags still win


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.config:
            args = _apply_config(parser, registry, argv, args)
        args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"cb2cf {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
