package wal

// EncodeSnapshot exposes the snapshot encoder to the package's external
// tests, which install containers no log of theirs could build.
var EncodeSnapshot = encodeSnapshot
