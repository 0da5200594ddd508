package psim

// RingLog exposes the token-ring model to the external tests.
var RingLog = ringLog
