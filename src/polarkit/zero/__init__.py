"""Self-play kernel-construction agent: environment, network, search, training."""
