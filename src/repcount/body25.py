"""BODY_25 joint layout: index constants and the left/right mirror map."""

NOSE = 0
NECK = 1
R_SHOULDER = 2
R_ELBOW = 3
R_WRIST = 4
L_SHOULDER = 5
L_ELBOW = 6
L_WRIST = 7
MID_HIP = 8
R_HIP = 9
R_KNEE = 10
R_ANKLE = 11
L_HIP = 12
L_KNEE = 13
L_ANKLE = 14
R_EYE = 15
L_EYE = 16
R_EAR = 17
L_EAR = 18
L_BIG_TOE = 19
L_SMALL_TOE = 20
L_HEEL = 21
R_BIG_TOE = 22
R_SMALL_TOE = 23
R_HEEL = 24

NUM_JOINTS = 25

# index -> index of the same joint on the opposite side (midline joints map to
# themselves)
MIRROR = {
    NOSE: NOSE, NECK: NECK, MID_HIP: MID_HIP,
    R_SHOULDER: L_SHOULDER, L_SHOULDER: R_SHOULDER,
    R_ELBOW: L_ELBOW, L_ELBOW: R_ELBOW,
    R_WRIST: L_WRIST, L_WRIST: R_WRIST,
    R_HIP: L_HIP, L_HIP: R_HIP,
    R_KNEE: L_KNEE, L_KNEE: R_KNEE,
    R_ANKLE: L_ANKLE, L_ANKLE: R_ANKLE,
    R_EYE: L_EYE, L_EYE: R_EYE,
    R_EAR: L_EAR, L_EAR: R_EAR,
    R_BIG_TOE: L_BIG_TOE, L_BIG_TOE: R_BIG_TOE,
    R_SMALL_TOE: L_SMALL_TOE, L_SMALL_TOE: R_SMALL_TOE,
    R_HEEL: L_HEEL, L_HEEL: R_HEEL,
}


def mirror_triple(triple):
    """Map a (A, B, C) joint triple to the opposite side of the body."""
    a, b, c = triple
    return (MIRROR[a], MIRROR[b], MIRROR[c])
