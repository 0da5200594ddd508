package psim

// RingLog exposes the token-ring model to the external tests.
var RingLog = ringLog

// RunFunc is the handler that calls its func() payload.
var RunFunc Handler = runFunc{}
