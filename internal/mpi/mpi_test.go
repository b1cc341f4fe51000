package mpi

import "testing"

func TestAllGather(t *testing.T) {
	RunWorld(NewWorld(4), func(c *Comm) {
		got, err := c.AllGather(c.Rank()*10, 0)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		for r, v := range got {
			if v.(int) != r*10 {
				t.Errorf("AllGather[%d] = %v, want %d", r, v, r*10)
			}
		}
	})
}

func TestAllGatherRepeated(t *testing.T) {
	RunWorld(NewWorld(3), func(c *Comm) {
		for round := 0; round < 10; round++ {
			got, err := c.AllGather(c.Rank()+round*100, 0)
			if err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
			for r, v := range got {
				if v.(int) != r+round*100 {
					t.Errorf("round %d: AllGather[%d] = %v", round, r, v)
				}
			}
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run swallowed a rank panic")
		}
	}()
	RunWorld(NewWorld(1), func(c *Comm) { panic("boom") })
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}
