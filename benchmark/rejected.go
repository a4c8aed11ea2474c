package main

// rejectedSeeds are the pool seeds whose request the service rejects,
// found by submitting every pool seed once; draw leaves them out, so
// that no request of a run fails. All are placement-validation errors
// (core.ValidateSetsLive), which the service returns as 500, or as 400
// from the tiered path:
//
//   - cold-compile: "restore of r12 ... overwrites a live value";
//   - exec-run: 61 untiered (500) and 79 tiered (400) requests,
//     "register r11 does not hold its original value at exit ...";
//   - hot-resubmit: none, its reversed variants included.
//
// TestRejectedSeeds fails once the service accepts one of them: a fix
// for these errors removes its seeds here, and the README records the
// counts before and after.
var rejectedSeeds = map[string][]uint64{
	"cold-compile": {38394},
	"exec-run": {
		188, 206, 490, 660, 908, 1288, 1644, 1813, 1918, 2124, 2361, 2802,
		2847, 2978, 2992, 3027, 3519, 4003, 4038, 4273, 4361, 4763, 5122, 5145,
		5184, 5300, 6002, 6026, 6358, 6402, 6571, 6586, 6645, 6853, 7109, 7168,
		7716, 7848, 7881, 7961, 8162, 8342, 8359, 8520, 8662, 8687, 8869, 9073,
		9099, 9179, 9264, 9346, 9482, 9522, 9715, 10024, 10465, 10532, 10823, 10835,
		10876, 10909, 11450, 11616, 11799, 12134, 12575, 12683, 12809, 13075, 13087, 14029,
		14278, 14280, 14292, 14556, 14695, 14761, 14975, 15014, 15123, 15394, 15453, 15931,
		15939, 16227, 16554, 16624, 16772, 16906, 17180, 17188, 17238, 17310, 17423, 17857,
		18104, 18497, 18662, 18908, 18952, 19084, 19146, 19513, 19568, 20378, 20382, 20388,
		20772, 20858, 20984, 21054, 21121, 21414, 21917, 22013, 22303, 22339, 23560, 23736,
		23970, 24964, 25535, 25659, 25932, 26053, 26056, 26069, 26206, 26709, 27181, 27982,
		27990, 28431, 28599, 28981, 29242, 29802, 29804, 29977,
	},
}
