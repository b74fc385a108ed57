package segment

// ClassKeys returns the keys of the segment's index classes, in class
// order: the feature set the segment indexes under.
func ClassKeys(s *Segment) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for _, c := range s.idx.Classes() {
		keys = append(keys, c.Key)
	}
	return keys
}

// MemoFloorBytes is the result memo's budget for a segment of fewer than
// MemoFloorBytes/64 graphs.
const MemoFloorBytes = memoFloorBytes
