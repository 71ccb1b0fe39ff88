"""Parse corpus (RL001): a file with a syntax error is reported, not skipped."""


def broken(:  # expect: RL001
    return 1
