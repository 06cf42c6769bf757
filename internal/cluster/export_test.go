package cluster

// PrimaryOwner names the node a fleet of ids, every member live and idle,
// places key on. The external integration tests pick specs by owner with
// it, without submitting them.
func PrimaryOwner(ids []string, key string) string {
	alive := make(map[string]bool, len(ids))
	for _, id := range ids {
		alive[id] = true
	}
	return newRing(ids).owner(key, alive, nil)
}
