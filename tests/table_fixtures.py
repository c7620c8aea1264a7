"""Independent transcriptions of the bundled study tables.

These literals are the reference the loaders and derivations are checked
against; they are kept separate from the shipped CSVs on purpose.
"""

# canonical row order of the published score table
CANONICAL_ORDER = [
    "D.R.T.Pu", "D.R.T.Pr", "D.R.T.PP", "I.R.T.Pu", "I.R.T.Pr", "I.R.T.PP",
    "D.C.T.Pu", "D.C.T.Pr", "D.C.T.PP", "I.C.T.Pu", "I.C.T.Pr", "I.C.T.PP",
    "D.R.S.Pu", "D.R.S.Pr", "D.R.S.PP", "I.R.S.Pu", "I.R.S.Pr", "I.R.S.PP",
    "D.C.S.Pu", "D.C.S.Pr", "D.C.S.PP", "I.C.S.Pu", "I.C.S.Pr", "I.C.S.PP",
    "D.R.A.Pu", "D.R.A.Pr", "D.R.A.PP", "I.R.A.Pu", "I.R.A.Pr", "I.R.A.PP",
    "D.C.A.Pu", "D.C.A.Pr", "D.C.A.PP", "I.C.A.Pu", "I.C.A.Pr", "I.C.A.PP",
]

ZSCORES = {
    "D.R.T.Pu": [-3, -1, -2, 2, 1],
    "D.R.T.Pr": [-2, -2, -2, -2, -3],
    "D.R.T.PP": [-3, 1, -2, 1, 0],
    "I.R.T.Pu": [-1, 0, -1, 3, 1],
    "I.R.T.Pr": [-4, -2, 0, -2, -1],
    "I.R.T.PP": [-2, 2, 0, 0, -1],
    "D.C.T.Pu": [-1, 0, 4, -1, 0],
    "D.C.T.Pr": [-5, -3, 3, 0, -2],
    "D.C.T.PP": [-2, 3, -1, -1, -1],
    "I.C.T.Pu": [-3, 0, 5, 3, 0],
    "I.C.T.Pr": [-4, -4, 3, -3, 0],
    "I.C.T.PP": [-2, 1, 2, 2, -2],
    "D.R.S.Pu": [0, 2, -5, -3, 2],
    "D.R.S.Pr": [-1, -3, -3, 0, 1],
    "D.R.S.PP": [2, 4, -4, 1, 3],
    "I.R.S.Pu": [-1, 1, -3, -5, 4],
    "I.R.S.Pr": [2, -2, -3, 1, 3],
    "I.R.S.PP": [2, 3, -4, 0, 2],
    "D.C.S.Pu": [3, 2, 0, -4, -1],
    "D.C.S.Pr": [3, -1, 1, 0, 2],
    "D.C.S.PP": [3, 5, 0, 0, 2],
    "I.C.S.Pu": [1, 1, 1, -2, 3],
    "I.C.S.Pr": [4, -1, 0, 2, 5],
    "I.C.S.PP": [1, 3, 0, -1, 4],
    "D.R.A.Pu": [0, -1, 1, 4, -3],
    "D.R.A.Pr": [0, -2, -2, -1, 0],
    "D.R.A.PP": [5, 4, -1, 1, 1],
    "I.R.A.Pu": [-1, -1, 2, 5, -2],
    "I.R.A.Pr": [0, -4, -1, -3, -3],
    "I.R.A.PP": [2, 2, -1, 1, -5],
    "D.C.A.Pu": [4, 0, 2, 2, -4],
    "D.C.A.Pr": [0, -5, 2, -2, -2],
    "D.C.A.PP": [1, 0, 1, 3, 0],
    "I.C.A.Pu": [0, 0, 4, -1, -1],
    "I.C.A.Pr": [1, -3, 1, -4, -4],
    "I.C.A.PP": [1, 1, 3, 4, 1],
}

LOADINGS = {
    "STK1": [0.84, 0.17, 0.07, -0.12, 0.27],
    "STK2": [0.67, -0.18, 0.01, 0.15, 0.64],
    "STK3": [0.07, 0.53, 0.31, 0.70, -0.08],
    "STK4": [0.79, -0.39, -0.20, 0.06, -0.14],
    "STK5": [0.67, -0.16, 0.13, 0.08, 0.25],
    "STK6": [0.88, 0.00, 0.06, -0.13, -0.05],
    "STK7": [0.85, 0.04, 0.04, -0.04, -0.12],
    "STK8": [0.68, -0.15, 0.10, 0.00, 0.65],
    "STK9": [-0.29, 0.13, -0.28, 0.29, -0.66],
    "STK10": [0.02, 0.10, 0.95, 0.05, 0.15],
    "STK11": [0.61, -0.48, -0.29, -0.06, -0.13],
    "STK12": [0.02, 0.10, 0.95, 0.05, 0.15],
    "STK13": [0.22, -0.10, 0.12, 0.73, 0.26],
    "STK14": [-0.09, 0.38, 0.19, 0.86, -0.14],
    "STK15": [-0.03, 0.13, -0.60, -0.18, 0.46],
    "STK16": [-0.05, 0.81, 0.18, 0.05, -0.08],
    "STK17": [0.36, 0.08, 0.19, -0.76, 0.04],
    "STK18": [-0.09, -0.69, 0.12, -0.18, 0.06],
    "STK19": [0.24, 0.01, 0.00, -0.18, -0.87],
    "STK20": [-0.31, 0.81, -0.01, -0.05, -0.03],
}

# factor index (0-based) and loading sign per stakeholder; None = unassigned
EXPECTED_FLAGS = {
    "STK1": (0, 1), "STK2": None, "STK3": (3, 1), "STK4": (0, 1),
    "STK5": (0, 1), "STK6": (0, 1), "STK7": (0, 1), "STK8": (0, 1),
    "STK9": (4, -1), "STK10": (2, 1), "STK11": (0, 1), "STK12": (2, 1),
    "STK13": (3, 1), "STK14": (3, 1), "STK15": (2, -1), "STK16": (1, 1),
    "STK17": (3, -1), "STK18": (1, -1), "STK19": (4, -1), "STK20": (1, 1),
}
EXPECTED_COUNTS = (7, 3, 3, 4, 2)

X0_FRACTIONS = [0.35, 0.15, 0.15, 0.20, 0.10]   # counts / 20, sums to 0.95
Z0 = [0.39, 0.33, 0.39, 0.28, 0.28]

Y0 = {
    "D.R.T.Pu": 0.0058, "D.R.T.Pr": 0.0030, "D.R.T.PP": 0.0010,
    "I.R.T.Pu": 0.0029, "I.R.T.Pr": 0.0002, "I.R.T.PP": 0.0022,
    "D.C.T.Pu": 0.0073, "D.C.T.Pr": 0.0146, "D.C.T.PP": 0.0007,
    "I.C.T.Pu": 0.0273, "I.C.T.Pr": 0.0224, "I.C.T.PP": 0.0108,
    "D.R.S.Pu": 0.0129, "D.R.S.Pr": 0.0054, "D.R.S.PP": 0.0630,
    "I.R.S.Pu": 0.0359, "I.R.S.Pr": 0.0317, "I.R.S.PP": 0.0358,
    "D.C.S.Pu": 0.0314, "D.C.S.Pr": 0.0159, "D.C.S.PP": 0.0707,
    "I.C.S.Pu": 0.0359, "I.C.S.Pr": 0.0833, "I.C.S.PP": 0.0823,
    "D.R.A.Pu": 0.0382, "D.R.A.Pr": 0.0020, "D.R.A.PP": 0.0442,
    "I.R.A.Pu": 0.0570, "I.R.A.Pr": 0.0131, "I.R.A.PP": 0.0373,
    "D.C.A.Pu": 0.0391, "D.C.A.Pr": 0.0222, "D.C.A.PP": 0.0505,
    "I.C.A.Pu": 0.0332, "I.C.A.Pr": 0.0285, "I.C.A.PP": 0.0319,
}

# dot products of each score row with the Y0 column, frozen from a plain
# loop oracle over the two tables above (Y0 sums to 0.9996, not 1)
PSI_AT_Y0_RAW = [1.2217, 0.7493, 0.1319, 0.4503, 0.7452]

# x' A(z) y at the case-study start (x0, y0 renormalized onto their
# simplices, z0 as above), frozen from the same loop oracle
UTILITY_AT_START = -0.22014395231776934
