// Package store is the persistent, append-only results store behind
// campaign checkpoint/resume and the caem-serve service: each completed
// (scenario, protocol, seed) campaign cell is one self-describing JSONL
// record, appended to an active tail that rolls into immutable,
// bloom-filtered segment files.
//
// # Layout
//
// A store is a directory:
//
//	<dir>/results.jsonl              active tail: append-only, one JSON Record per line
//	<dir>/segments/seg-NNNNNN.jsonl  immutable segments rolled from the tail
//	<dir>/campaigns/                 one JSON blob per campaign spec (service metadata)
//
// A segment is the record lines of the tail it was rolled from, copied
// as they stand, then a key block, then a footer line (distinct-key
// count, key ranges, a bloom filter over its keys, the store-wide
// distinct-cell count at the roll that wrote it, and the key block's
// length and CRC-32C), then a fixed-width trailer locating the footer.
// The key block holds one line per distinct key, sorted by rendered
// key: the key, the offset and length of its record line, and that
// line's CRC-32C (Castagnoli). Open reads every footer, takes the cell
// count from the newest one, and rebuilds the tail index by scanning the
// tail, which rolling keeps at most Options.SegmentBytes long. A
// segment's key index is loaded on the first lookup its bloom filter
// admits, from the key block alone, and every record line read from the
// segment is checked against its CRC-32C before it is decoded: a
// mismatch is an error, never a Record. A segment written before the key
// block existed (footer version 2), or one whose key block fails its
// checksum, is indexed by decoding its record lines instead. A torn
// tail — a partial or undecodable final line left by a crash mid-append
// — is truncated away on Open and reported via RecoveredBytes, so a
// killed campaign can always restart cleanly.
//
// # Durability and determinism
//
// PutBatch appends its records with one write and one fsync before it
// returns. A key is a content address: it fixes its record's Summary, so
// each key is written once, and PutBatch appends only the records whose
// key the store does not hold yet. It fsyncs even when it appends
// nothing, so a nil return always means every key of the batch is
// durable. Nothing is ever rewritten: a roll publishes its segment (file
// fsync, rename, directory fsync) before it truncates the tail, and
// segments are never changed after. Records round-trip exactly:
// encoding/json writes float64 values in a form that reads back
// bit-for-bit, which is what lets a resumed campaign reproduce
// byte-identical aggregate output from stored cells (see
// caem.RunCampaignWith and TestResumeEquivalence). Every read decodes a
// line with one decoder that parses the exact shape the encoder writes
// and hands any other line to json.Unmarshal, so it returns exactly what
// json.Unmarshal would (FuzzRecordDecode).
//
// Every cell is read by its key (Has, Get); the store has no ordered or
// whole-store read. Stores written before puts became write-once may
// hold several copies of a key, in the tail and in segments rolled from
// such a tail, as may a crash between publishing a segment and
// truncating the tail. Reads take the tail first, then the segments
// newest first, and within either the later line, so the newest copy
// wins.
//
// Appends from concurrent campaign workers are serialized internally;
// a Store is safe for concurrent use by one process. Multi-process
// single-writer discipline is the caller's responsibility.
//
// The package is deliberately independent of the public caem API: it
// stores flat Summary metrics and opaque campaign blobs, so the service
// layer and the CLI share one on-disk format without an import cycle.
package store
