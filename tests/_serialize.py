"""A filled config as YAML, for the round-trip tests."""

import yaml


def serialize(config):
    """YAML dump that parse_config_text round-trips to an identical config."""
    return yaml.safe_dump(config.raw, sort_keys=True)
