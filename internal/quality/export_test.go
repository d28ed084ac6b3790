package quality

// NewTrackerDepth is NewTracker with a sampled-query queue of depth slots,
// for tests that sample faster than one worker drains the queue.
var NewTrackerDepth = newTracker
