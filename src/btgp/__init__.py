"""Behavior-tree policy learning with genetic programming on a fast
state-machine world model. The entry point is ``btgp.cli``; the package binds
only its modules: bt, world, fitness, gp, experiments and cli."""
