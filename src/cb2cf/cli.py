"""Command-line entry point.

Every subcommand accepts --config FILE, a JSON object whose keys are the
long option names (dashes or underscores); explicit flags override config
values. Exit code 0 on success, 1 with a one-line stderr diagnostic on
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import corpus, data, evaluation, features, model as model_mod, net, synthetic
from .corpus import DEFAULT_CAP, build_vocabulary, open_text, save_vocabulary, tokenize
from .sgns import EmbeddingTable, SgnsConfig, check_topk, similarity_search, train_sgns


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
    config = _from_args(SgnsConfig, _WORD_SGNS_FLAGS, args)
    sentences = _read_corpus(args.corpus)
    vocab = build_vocabulary(sentences, cap=args.vocab_cap)
    table = train_sgns([[t for t in s if t in vocab] for s in sentences], config)
    table.save(args.out)
    if args.save_vocab:
        save_vocabulary(vocab, args.save_vocab)
    print(f"trained {len(table)} word vectors of dim {table.dim} -> {args.out}")


def _cmd_train_item2vec(args: argparse.Namespace) -> None:
    _require(args, "out")
    if (args.ratings is None) == (args.sets is None):
        raise CliError("pass exactly one of --ratings / --sets")
    config = _from_args(SgnsConfig, _SGNS_FLAGS, args)
    if args.ratings:
        histories = data.load_ratings(args.ratings)
        sets = data.cooccurrence_from_ratings(histories, threshold=args.threshold)
    else:
        sets = data.load_sets(args.sets)
    if not sets.sets:
        raise CliError("no co-occurrence sets of size >= 2")
    table = train_sgns(sets, config)
    table.save(args.out)
    print(f"trained {len(table)} item vectors of dim {table.dim} from "
          f"{len(sets.sets)} sets ({sets.dropped} dropped) -> {args.out}")


def _text_assets(args: argparse.Namespace, fit_centroids: bool) -> tuple:
    """The --word-vectors table and, if ``fit_centroids``, its --bow-centroids
    k-means centroids; None for each one that is not there."""
    table = EmbeddingTable.load(args.word_vectors) if args.word_vectors else None
    if table is None or not fit_centroids:
        return table, None
    return table, features.fit_kmeans(table.vectors, args.bow_centroids, seed=args.seed)


def _cmd_fit_features(args: argparse.Namespace) -> None:
    _require(args, "metadata", "out")
    profiles = data.load_metadata(args.metadata)
    word_table, centroids = _text_assets(args, args.bow_centroids > 0)
    context = features.fit_feature_context(
        profiles, word_table=word_table, centroids=centroids,
        min_tag_count=args.min_tag_count, temperature=args.temperature)
    features.save_feature_context(context, args.out)
    sizes = ", ".join(f"{f}={context.tag_vocab.size(f)}" for f in features.TAG_FIELDS)
    print(f"feature context over {len(profiles)} profiles ({sizes}) -> {args.out}")


def _usable_profiles(profiles: list, targets: EmbeddingTable) -> list:
    """The profiles that have a target vector; says how many were skipped."""
    usable = [p for p in profiles if p.id in targets]
    if not usable:
        raise CliError("no metadata item has a target vector")
    if len(usable) < len(profiles):
        print(f"skipping {len(profiles) - len(usable)} items without target vectors",
              file=sys.stderr)
    return usable


def _cmd_train_model(args: argparse.Namespace) -> None:
    _require(args, "system", "features", "metadata", "targets", "out")
    spec = model_mod.SystemSpec.named(args.system)
    with _flag("--max-words"):
        spec = dataclasses.replace(spec, cnn_variant=args.cnn_variant, text_length=args.max_words)
    config = _from_args(model_mod.TrainConfig, _TRAIN_FLAGS, args)
    context = features.load_feature_context(args.features)
    profiles = data.load_metadata(args.metadata)
    targets = EmbeddingTable.load(args.targets)
    spec = dataclasses.replace(spec, output_dim=targets.dim)
    usable = _usable_profiles(profiles, targets)
    parts = model_mod.bundle_parts(spec)
    bundles = [features.featurize_item(p, context, parts) for p in usable]
    net_model = model_mod.build_model(spec, context, seed=args.seed)
    report = model_mod.train(net_model, bundles, targets, config)
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


@contextlib.contextmanager
def _flag(name: str):
    """A ValueError raised inside becomes a CliError that names the flag ``name``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None


def _check_centroid_count(count: int) -> None:
    if count < 0:
        raise ValueError("centroid count must be >= 0 (0 for none)")


# Flag dest -> its value's rule, which main applies before the command runs.
_FLAG_RULES = {"seed": net.check_seed, "folds": evaluation.check_folds,
               "min_tag_count": features.check_min_tag_count, "vocab_cap": corpus.check_cap,
               "temperature": features.check_temperature, "bow_centroids": _check_centroid_count,
               "topk": check_topk, "threshold": data.check_threshold}


def _listed(flag: str, raw: str, what: str, convert=str) -> list:
    """The comma-separated entries of a flag through ``convert``: at least one, none twice."""
    with _flag(flag):  # the error names the entry, e.g. int()'s "invalid literal ... 'x'"
        values = [convert(entry.strip()) for entry in raw.split(",") if entry.strip()]
    if not values:
        raise CliError(f"{flag} lists no {what}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise CliError(f"{flag} lists {value} more than once")
    return values


def _cmd_evaluate(args: argparse.Namespace) -> None:
    _require(args, "systems", "metadata", "targets", "report")
    systems = _listed("--systems", args.systems, "system names",
                      lambda name: model_mod.SystemSpec.named(name).name)  # checks the name
    ks = _listed("--ndcg-k", args.ndcg_k, "cutoffs", int)
    needed = set().union(*(model_mod.bundle_parts(model_mod.SystemSpec.named(name))
                           for name in systems))
    config = _from_args(model_mod.TrainConfig, _TRAIN_FLAGS, args)
    with _flag("--max-words"):  # main has checked the flags of the other settings
        settings = evaluation.EvalSettings(
            config, folds=args.folds, seed=args.seed, ndcg_ks=ks,
            min_tag_count=args.min_tag_count, temperature=args.temperature,
            spec_overrides={"cnn_variant": args.cnn_variant, "text_length": args.max_words})
    if needed & {"text", "bow"} and not args.word_vectors:
        raise CliError("these systems need --word-vectors")
    if "bow" in needed and args.bow_centroids < 1:
        raise CliError("a BOW system needs --bow-centroids >= 1")
    profiles = data.load_metadata(args.metadata)
    targets = EmbeddingTable.load(args.targets)
    usable = _usable_profiles(profiles, targets)
    word_table, centroids = _text_assets(args, "bow" in needed)

    usable_ks = evaluation.usable_cutoffs(ks, targets)
    if len(usable_ks) < len(ks):
        print(f"dropping ndcg cutoffs outside 1..{len(targets) - 1}: "
              f"{[k for k in ks if k not in usable_ks]}", file=sys.stderr)
    if not usable_ks:
        raise CliError(f"no ndcg cutoff fits a catalog of {len(targets)} items")

    dataset = evaluation.EvalDataset(usable, targets, word_table, centroids)
    report = evaluation.run_evaluation(systems, dataset,
                                       dataclasses.replace(settings, ndcg_ks=usable_ks))
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
    spec = _from_args(synthetic.SyntheticSpec, _SYNTH_FLAGS, args)
    sets, profiles, vectors = synthetic.generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.save_sets(sets, out / "sets.txt")
    data.save_metadata(profiles, out / "metadata.jsonl")
    vectors.save(out / "vectors.vec")
    print(f"synthetic dataset: {spec.items} items, {spec.clusters} clusters, "
          f"{len(sets.sets)} sets -> {out}")


# Flag -> field of the config object the flag fills. Each flag takes its
# type and default from the field, so a default lives only on the class.
_SGNS_FLAGS = {"dim": "dim", "neg": "negatives", "subsample": "subsample",
               "epochs": "epochs", "lr": "learning_rate", "seed": "seed"}
_WORD_SGNS_FLAGS = {**_SGNS_FLAGS, "window": "window"}
_TRAIN_FLAGS = {"batch": "batch_size", "l2": "l2", "dropout": "dropout",
                "word-dropout": "word_dropout", "lr": "learning_rate",
                "max-epochs": "max_epochs", "patience": "patience",
                "val-fraction": "val_fraction", "seed": "seed"}
_SYNTH_FLAGS = {"items": "items", "clusters": "clusters", "dim": "dim",
                "vocab-size": "vocab_size", "noise": "noise",
                "year-weight": "year_weight", "set-count": "set_count", "seed": "seed"}


def _add_fields(sub: argparse.ArgumentParser, cls: type, flags: dict[str, str],
                **defaults) -> None:
    """A flag per ``flags`` entry, typed and defaulted by its field of ``cls`` or ``defaults``."""
    for flag, name in flags.items():
        default = defaults.get(name, getattr(cls, name))
        sub.add_argument(f"--{flag}", type=int if default is None else type(default),
                         default=default)


def _from_args(cls: type, flags: dict[str, str], args: argparse.Namespace):
    return cls(**{name: getattr(args, flag.replace("-", "_")) for flag, name in flags.items()})


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    _add_fields(sub, model_mod.TrainConfig, _TRAIN_FLAGS)
    sub.add_argument("--cnn-variant", choices=model_mod.CNN_VARIANTS,
                     default=model_mod.SystemSpec.cnn_variant)
    sub.add_argument("--max-words", type=int, default=model_mod.SystemSpec.text_length)


def _add_feature_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--metadata")
    sub.add_argument("--word-vectors")
    sub.add_argument("--bow-centroids", type=int, default=250)
    sub.add_argument("--min-tag-count", type=int, default=features.DEFAULT_MIN_TAG_COUNT)
    sub.add_argument("--temperature", type=float, default=features.DEFAULT_TEMPERATURE)


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
    p.add_argument("--vocab-cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--save-vocab")
    _add_fields(p, SgnsConfig, _WORD_SGNS_FLAGS, dim=100, subsample=1e-5)  # word-mode defaults
    p.add_argument("--out")

    p = sub("train-item2vec", _cmd_train_item2vec,
            "train CF item vectors from co-occurrence sets")
    p.add_argument("--ratings")
    p.add_argument("--sets")
    p.add_argument("--threshold", type=float, default=data.DEFAULT_THRESHOLD)
    _add_fields(p, SgnsConfig, _SGNS_FLAGS)
    p.add_argument("--out")

    p = sub("fit-features", _cmd_fit_features,
            "fit tag/year statistics and write the feature context file")
    _add_feature_flags(p)
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
    _add_feature_flags(p)
    p.add_argument("--targets")
    p.add_argument("--folds", type=int, default=evaluation.EvalSettings.folds)
    p.add_argument("--ndcg-k", default=",".join(map(str, evaluation.DEFAULT_NDCG_KS)))
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
    _add_fields(p, synthetic.SyntheticSpec, _SYNTH_FLAGS)
    p.add_argument("--out")

    return parser, registry


def _apply_config(parser: argparse.ArgumentParser,
                  registry: dict[str, argparse.ArgumentParser],
                  argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    with open_text(args.config) as fh:
        text = fh.read()
    try:
        loaded = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise CliError(f"{args.config}: invalid JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise CliError(f"{args.config}: config must be a JSON object")
    sub = registry[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("config", "help")}
    defaults = {}
    for key, value in loaded.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise CliError(f"{args.config}: unknown option {key!r} for {args.command}")
        # Checked as a flag would be: its type as written, and its choices.
        kinds = {int: int, float: (int, float), None: str}[action.type]
        if isinstance(value, bool) or not isinstance(value, kinds) \
                or action.choices is not None and value not in action.choices:
            raise CliError(f"{args.config}: bad value {value!r} for key {key!r}")
        defaults[action.dest] = value
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
        for dest, rule in _FLAG_RULES.items():
            if hasattr(args, dest):
                with _flag(f"--{dest.replace('_', '-')}"):
                    rule(getattr(args, dest))
        args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"cb2cf {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
