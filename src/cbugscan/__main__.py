import sys
from cbugscan.cli import main
sys.exit(main())
