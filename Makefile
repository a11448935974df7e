# Convenience targets for the PDS2 reproduction.

PYTHON ?= python

.PHONY: install test bench examples all clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) benchmarks/e25/run.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/healthcare_gossip.py
	$(PYTHON) examples/energy_rewards.py
	$(PYTHON) examples/device_authenticity.py
	$(PYTHON) examples/private_training.py
	$(PYTHON) examples/token_marketplace.py

all: test bench

clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
