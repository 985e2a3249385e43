"""Desk-scale verifiable secret sharing, BFT consensus, and the training
workflows built on top of them."""
