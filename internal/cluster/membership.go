package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
)

// Node is one member of the membership list: a stable ID plus the base URL
// its sgxd API listens on. At boot every node is configured with an
// initial list (possibly just itself); from there membership evolves
// through epoch-versioned views gossiped on heartbeats, so placement
// agrees everywhere without a coordination service.
type Node struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Member is one entry of an epoch-versioned membership view. Leaving marks
// a node in ring-excluded drain: it still heartbeats and serves reads, but
// no new placement lands on it; once its queue settles it departs and the
// next epoch drops it entirely.
type Member struct {
	Node
	Leaving bool `json:"leaving,omitempty"`
}

// View is the membership at one epoch. Views travel on every heartbeat;
// a node receiving a higher epoch adopts it wholesale, and ties (two nodes
// bumping the same epoch concurrently) break deterministically on the
// view digest, so all nodes converge without coordination. Members are
// kept sorted by ID.
type View struct {
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// viewOf wraps a boot-time node list as epoch 1.
func viewOf(nodes []Node) View {
	v := View{Epoch: 1, Members: make([]Member, len(nodes))}
	for i, n := range nodes {
		v.Members[i] = Member{Node: n}
	}
	v.sort()
	return v
}

func (v *View) sort() {
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
}

// find returns the member with the given ID, if present.
func (v View) find(id string) (Member, bool) {
	for _, m := range v.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// ringIDs lists the members eligible for placement: everyone not in
// ring-excluded drain.
func (v View) ringIDs() []string {
	ids := make([]string, 0, len(v.Members))
	for _, m := range v.Members {
		if !m.Leaving {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

// digest is the deterministic tie-break for views at the same epoch: the
// sha256 of the canonical (sorted) member list. Both sides of a tie
// compute the same winner, so concurrent epoch bumps converge on the next
// gossip exchange instead of flapping.
func (v View) digest() string {
	raw, _ := json.Marshal(v.Members)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// clone deep-copies the view so epoch bumps never alias a shared slice.
func (v View) clone() View {
	out := View{Epoch: v.Epoch, Members: make([]Member, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// withJoined returns the next epoch with n added (or its addr refreshed
// when the ID already exists — a rejoin after restart).
func (v View) withJoined(n Node) View {
	out := v.clone()
	out.Epoch++
	for i := range out.Members {
		if out.Members[i].ID == n.ID {
			out.Members[i] = Member{Node: n}
			return out
		}
	}
	out.Members = append(out.Members, Member{Node: n})
	out.sort()
	return out
}

// withLeaving returns the next epoch with id marked leaving (ring-excluded
// drain).
func (v View) withLeaving(id string) View {
	out := v.clone()
	out.Epoch++
	for i := range out.Members {
		if out.Members[i].ID == id {
			out.Members[i].Leaving = true
		}
	}
	return out
}

// without returns the next epoch with id removed entirely (departure).
func (v View) without(id string) View {
	out := View{Epoch: v.Epoch + 1}
	for _, m := range v.Members {
		if m.ID != id {
			out.Members = append(out.Members, m)
		}
	}
	return out
}

// pickView resolves two views of the same cluster: the higher epoch wins,
// and an epoch tie breaks on the larger digest. Returns the winner and
// whether it differs from local.
func pickView(local, remote View) (View, bool) {
	if remote.Epoch == 0 || len(remote.Members) == 0 {
		return local, false // no view attached (or a malformed one)
	}
	if remote.Epoch < local.Epoch {
		return local, false
	}
	if remote.Epoch > local.Epoch {
		return remote, true
	}
	ld, rd := local.digest(), remote.digest()
	if rd > ld {
		return remote, true
	}
	return local, false
}

// normalizeAddr validates one node base URL, a -peers entry or a joiner's
// address: bare host:port gets http://, trailing slashes drop, and
// anything that is not an http(s) URL with a host is rejected.
func normalizeAddr(addr string) (string, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return "", fmt.Errorf("cluster: bad node addr %q", addr)
	}
	return strings.TrimRight(addr, "/"), nil
}

// ParsePeers parses a membership spec into a sorted, deduplicated node
// list. Two forms are accepted:
//
//   - inline: "n1=http://host:7483,n2=http://host:7484" (commas or
//     whitespace separate entries; a bare host:port gets http://)
//   - file:   "@peers.json" — a JSON array of {"id": ..., "addr": ...},
//     or the same inline text
//
// The same spec string is handed to every node (only -node-id differs),
// so the parse must be deterministic: entries come back sorted by ID.
func ParsePeers(spec string) ([]Node, error) {
	spec = strings.TrimSpace(spec)
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("cluster: read peers file: %w", err)
		}
		spec = strings.TrimSpace(string(data))
	}
	if spec == "" {
		return nil, fmt.Errorf("cluster: empty peers spec")
	}

	var nodes []Node
	if strings.HasPrefix(spec, "[") {
		if err := json.Unmarshal([]byte(spec), &nodes); err != nil {
			return nil, fmt.Errorf("cluster: bad peers JSON: %w", err)
		}
	} else {
		for _, entry := range strings.FieldsFunc(spec, func(r rune) bool {
			return r == ',' || r == '\n' || r == ' ' || r == '\t'
		}) {
			id, addr, ok := strings.Cut(entry, "=")
			if !ok || id == "" || addr == "" {
				return nil, fmt.Errorf("cluster: bad peer entry %q (want id=url)", entry)
			}
			nodes = append(nodes, Node{ID: id, Addr: addr})
		}
	}

	seen := make(map[string]bool, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		if n.ID == "" || n.Addr == "" {
			return nil, fmt.Errorf("cluster: peer entry %d missing id or addr", i)
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
		addr, err := normalizeAddr(n.Addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s has bad addr %q", n.ID, n.Addr)
		}
		n.Addr = addr
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes, nil
}
