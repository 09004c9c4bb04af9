"""Test-side knowledge of the synthetic generator."""


def cluster_labels(spec):
    """Item id -> planted cluster index, matching ``generate_synthetic``."""
    return {f"m{i:05d}": i % spec.clusters for i in range(spec.items)}
